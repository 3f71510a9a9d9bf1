"""File formats: the JSON network document and the matrix table.

Network document (JSON, schema_version 1):

    {
      "schema_version": 1,
      "nodes": [1, 2, 3],
      "defaults": {"variance": 0.01, "max_acceptable_risk": 0.0},
      "appetites": {"2": 0.1},
      "edges": [
        {"from": 1, "to": 2, "required": 0.4546,
         "direct_mean": 0.5133, "indirect_mean": 0.7578,
         "direct_variance": 0.02, "indirect_variance": 0.02}
      ]
    }

Node ids must be the consecutive integers 1..n.  Per-edge variances and
the appetites map are optional and fall back to the document defaults,
which themselves fall back to the package defaults (variance 0.01,
appetite 0).  The loader reads the edges into Network's columns in one
pass.  Validation errors name the offending field path; Network rejects
a self-edge or a duplicate edge, reported at the path "edges".

Matrix table (comma-separated text, diff-friendly): a labels line, then
the five sections T, A, B, C, R, each one name line followed by n rows
rendered with 4 decimal places.  Lines starting with '#' are comments.
"""
from __future__ import annotations

import json
import math
from importlib import resources
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, NetworkDocumentError
from .fusion import DEFAULT_VARIANCE
from .netsim import EDGE_COLUMNS, Network

SCHEMA_VERSION = 1
MATRIX_SECTIONS = ("T", "A", "B", "C", "R")
MATRIX_HEADER = "# trust matrices v1"

#: The three-node reference network shipped with the package.
THREE_NODE_RESOURCE = "three_node_network.json"


def _require(condition: bool, message: str, where: str) -> None:
    if not condition:
        raise NetworkDocumentError(message, where)


# The per-field helpers run for every edge field: they format a message only on failure.

def _as_number(value: Any, name: str, where: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise NetworkDocumentError(f"field {name!r} must be a number, got {value!r}", where)
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise NetworkDocumentError(f"field {name!r} must be finite, got {value!r}", where)
    return number


def _get_variance(obj: Mapping[str, Any], key: str, default: float, where: str) -> float:
    value = _as_number(obj.get(key, default), key, where)
    if not value > 0.0:
        raise NetworkDocumentError(f"field {key!r} must be positive, got {value!r}", where)
    return value


def _get_unit(obj: Mapping[str, Any], key: str, where: str) -> float:
    if key not in obj:
        raise NetworkDocumentError(f"missing field {key!r}", where)
    value = _as_number(obj[key], key, where)
    if not 0.0 <= value <= 1.0:
        raise NetworkDocumentError(f"field {key!r} must lie in [0, 1], got {value!r}", where)
    return value


def document_to_network(doc: Mapping[str, Any]) -> Network:
    """Build a Network from a parsed document, applying the defaults."""
    _require(isinstance(doc, dict), "document must be a JSON object", "$")
    version = doc.get("schema_version")
    _require(version == SCHEMA_VERSION,
             f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})",
             "schema_version")

    nodes = doc.get("nodes")
    _require(isinstance(nodes, list) and nodes, "field 'nodes' must be a non-empty list", "nodes")
    _require(all(isinstance(n, int) and not isinstance(n, bool) for n in nodes),
             "node ids must be integers", "nodes")
    _require(len(set(nodes)) == len(nodes), "node ids must be unique", "nodes")
    _require(sorted(nodes) == list(range(1, len(nodes) + 1)),
             f"node ids must be the consecutive integers 1..{len(nodes)}", "nodes")
    node_count = len(nodes)

    defaults = doc.get("defaults", {})
    _require(isinstance(defaults, dict), "field 'defaults' must be an object", "defaults")
    default_variance = _get_variance(defaults, "variance", DEFAULT_VARIANCE, "defaults")
    default_appetite = 0.0
    if "max_acceptable_risk" in defaults:
        default_appetite = _get_unit(defaults, "max_acceptable_risk", "defaults")

    appetites_doc = doc.get("appetites", {})
    _require(isinstance(appetites_doc, dict), "field 'appetites' must be an object", "appetites")
    node_ids = {str(node): node for node in range(1, node_count + 1)}
    max_risk = [default_appetite] * node_count
    for key, value in appetites_doc.items():
        where = f"appetites.{key}"
        _require(key in node_ids, f"appetite key {key!r} is not a node id 1..{node_count}",
                 where)
        appetite = _as_number(value, "appetite", where)
        _require(0.0 <= appetite <= 1.0, f"appetite must lie in [0, 1], got {value!r}", where)
        max_risk[node_ids[key] - 1] = appetite

    edges_doc = doc.get("edges")
    _require(isinstance(edges_doc, list), "field 'edges' must be a list", "edges")
    src: list[int] = []
    dst: list[int] = []
    required, direct_mean, direct_var, indirect_mean, indirect_var = [], [], [], [], []
    for index, entry in enumerate(edges_doc):
        where = f"edges[{index}]"
        _require(isinstance(entry, dict), "edge must be an object", where)
        for name, end in (("from", src), ("to", dst)):
            value = entry.get(name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise NetworkDocumentError(f"field {name!r} must be an integer node id", where)
            if not 1 <= value <= node_count:
                raise NetworkDocumentError(
                    f"field {name!r} references unknown node {value}", where)
            end.append(value)
        required.append(_get_unit(entry, "required", where))
        direct_mean.append(_get_unit(entry, "direct_mean", where))
        indirect_mean.append(_get_unit(entry, "indirect_mean", where))
        direct_var.append(_get_variance(entry, "direct_variance", default_variance, where))
        indirect_var.append(_get_variance(entry, "indirect_variance", default_variance, where))
    try:
        return Network(node_count, src, dst, required, direct_mean, direct_var,
                       indirect_mean, indirect_var, max_risk)
    except ConfigurationError as exc:  # a self-edge or a duplicate edge
        raise NetworkDocumentError(str(exc), "edges") from exc


def network_to_document(network: Network) -> dict[str, Any]:
    """Serialise a Network losslessly (explicit variances and appetites)."""
    # the document's edge fields, in the order of the columns
    keys = ("from", "to", *EDGE_COLUMNS)
    columns = (network.src, network.dst, *(getattr(network, name) for name in EDGE_COLUMNS))
    edges = [dict(zip(keys, row)) for row in zip(*(column.tolist() for column in columns))]
    return {
        "schema_version": SCHEMA_VERSION,
        "nodes": list(range(1, network.node_count + 1)),
        "defaults": {"variance": DEFAULT_VARIANCE, "max_acceptable_risk": 0.0},
        "appetites": {str(node): risk for node, risk in enumerate(network.max_risk.tolist(), 1)},
        "edges": edges,
    }


def load_network(path: str | Path) -> Network:
    """Load and validate a network document file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise NetworkDocumentError(str(exc), str(path)) from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetworkDocumentError(f"not valid JSON: {exc}", str(path)) from exc
    return document_to_network(doc)


def save_network(network: Network, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(network_to_document(network), indent=2) + "\n", encoding="utf-8"
    )


def load_bundled_three_node() -> Network:
    """Load the three-node reference network shipped inside the package."""
    text = resources.files("betatrust").joinpath("data", THREE_NODE_RESOURCE).read_text("utf-8")
    return document_to_network(json.loads(text))


def _row_format(cells: int) -> str:
    """printf template of one table row: cells values to 4 decimal places."""
    return ",".join(["%.4f"] * cells)


def render_matrices(
    labels: Sequence[int],
    matrices: Mapping[str, np.ndarray],
    comments: Sequence[str] = (),
) -> str:
    """Render the five named matrices as the comma-separated table format."""
    n = len(labels)
    row_format = _row_format(n)
    lines = [MATRIX_HEADER]
    lines.extend(f"# {comment}" for comment in comments)
    lines.append("labels," + ",".join(str(label) for label in labels))
    for name in MATRIX_SECTIONS:
        matrix = matrices[name]
        if matrix.shape != (n, n):
            raise ValueError(f"matrix {name} has shape {matrix.shape}, expected ({n}, {n})")
        lines.append(name)
        lines.extend(row_format % tuple(row.tolist()) for row in matrix)
    return "\n".join(lines) + "\n"


def parse_matrices(text: str) -> tuple[list[int], dict[str, np.ndarray]]:
    """Parse the matrix table format back into labels and matrices."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines or not lines[0].startswith("labels,"):
        raise ValueError("matrix document must start with a labels line")
    labels = [int(cell) for cell in lines[0].split(",")[1:]]
    n = len(labels)
    if len(lines) != 1 + len(MATRIX_SECTIONS) * (n + 1):
        raise ValueError("matrix document has the wrong number of lines")
    matrices: dict[str, np.ndarray] = {}
    cursor = 1
    for name in MATRIX_SECTIONS:
        if lines[cursor] != name:
            raise ValueError(f"expected section {name!r}, found {lines[cursor]!r}")
        cursor += 1
        rows = []
        for _ in range(n):
            cells = lines[cursor].split(",")
            if len(cells) != n:
                raise ValueError(f"section {name!r} row has {len(cells)} cells, expected {n}")
            rows.append([float(cell) for cell in cells])
            cursor += 1
        matrices[name] = np.array(rows)
    return labels, matrices


def render_risk_table(labels: Sequence[int], r_matrix: np.ndarray) -> str:
    """Per-node risk series as a plot-ready table: rows nodes, columns peers.

    The self column carries the diagonal convention 0.
    """
    header = "node," + ",".join(str(label) for label in labels)
    row_format = f"%s,{_row_format(r_matrix.shape[1])}"
    lines = [header]
    lines.extend(row_format % (label, *r_matrix[index].tolist())
                 for index, label in enumerate(labels))
    return "\n".join(lines) + "\n"
