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
appetite 0).  The loader checks each number with fusion's two value
rules, and an error names the offending field path; Network rejects
a self-edge or a duplicate edge, reported at the path "edges".

Matrix table (comma-separated text, diff-friendly): a labels line, then
the five sections T, A, B, C, R, each one name line followed by n rows
of "%.4f" cells.  Lines starting with '#' are comments.  A block of 64 float64
rows in [0, 1], none -0.0, looks its cells up by rint(x * 1e4) and lets "%.4f"
format any cell within 1e-9 of a half.  write_matrices and write_risk_table
stream an assessment result's tables, each block built from the edge columns.
"""
from __future__ import annotations

import json
import math
from functools import cache
from importlib import resources
from itertools import chain
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, NetworkDocumentError, TrustError
from .fusion import DEFAULT_VARIANCE, _check_unit_interval, _check_variance
from .netsim import EDGE_COLUMNS, AssessmentResult, Network

SCHEMA_VERSION = 1
MATRIX_SECTIONS = ("T", "A", "B", "C", "R")
MATRIX_HEADER = "# trust matrices v1"

#: The three-node reference network shipped with the package.
THREE_NODE_RESOURCE = "three_node_network.json"

_BLOCK_ROWS = 64  # table rows formatted at a time


def _require(condition: bool, message: str, where: str) -> None:
    if not condition:
        raise NetworkDocumentError(message, where)


def _number(obj: Mapping[str, Any], key: str, where: str, rule, default: Any = None) -> float:
    """obj[key], or default if the key is absent, as a finite float that passes rule, one
    of fusion's two value rules; the field's name is built only to word the rule's error."""
    value = number = obj.get(key, default)
    if type(value) is not float:
        if value is None and key not in obj:
            raise NetworkDocumentError(f"missing field {key!r}", where)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise NetworkDocumentError(f"field {key!r} must be a number, got {value!r}", where)
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
    if not math.isfinite(number):
        raise NetworkDocumentError(f"field {key!r} must be finite, got {value!r}", where)
    try:
        return rule(key, number)
    except TrustError:
        try:
            rule(f"field {key!r}", number)
        except TrustError as exc:
            raise NetworkDocumentError(str(exc), where) from exc


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
    default_var = _number(defaults, "variance", "defaults", _check_variance, DEFAULT_VARIANCE)
    default_risk = _number(defaults, "max_acceptable_risk", "defaults", _check_unit_interval, 0.0)

    appetites_doc = doc.get("appetites", {})
    _require(isinstance(appetites_doc, dict), "field 'appetites' must be an object", "appetites")
    node_ids = {str(node): node for node in range(1, node_count + 1)}
    max_risk = [default_risk] * node_count
    for key, value in appetites_doc.items():
        where = f"appetites.{key}"
        _require(key in node_ids, f"appetite key {key!r} is not a node id 1..{node_count}",
                 where)
        # read as the one field of an object, so that the messages name 'appetite'
        max_risk[node_ids[key] - 1] = _number({"appetite": value}, "appetite", where,
                                              _check_unit_interval)

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
        required.append(_number(entry, "required", where, _check_unit_interval))
        direct_mean.append(_number(entry, "direct_mean", where, _check_unit_interval))
        indirect_mean.append(_number(entry, "indirect_mean", where, _check_unit_interval))
        direct_var.append(_number(entry, "direct_variance", where, _check_variance, default_var))
        indirect_var.append(
            _number(entry, "indirect_variance", where, _check_variance, default_var))
    # arrays, which Network takes without scanning for the bools _number has rejected
    src, dst = np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)
    columns = [np.array(column, dtype=float) for column in (
        required, direct_mean, direct_var, indirect_mean, indirect_var, max_risk)]
    for column in (src, dst, *columns):  # frozen, so that Network keeps them without a copy
        column.flags.writeable = False
    try:
        return Network(node_count, src, dst, *columns)
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
        doc = json.loads(Path(path).read_bytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:  # nested too deep
        raise NetworkDocumentError(f"not valid JSON: {exc}", str(path)) from exc
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise NetworkDocumentError(str(exc), str(path)) from exc
    return document_to_network(doc)


def save_network(network: Network, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(network_to_document(network), indent=2) + "\n", encoding="utf-8"
    )


def load_bundled_three_node() -> Network:
    """Load the three-node reference network shipped inside the package."""
    with resources.as_file(resources.files("betatrust") / "data" / THREE_NODE_RESOURCE) as path:
        return load_network(path)


def _square(name: str, matrix: np.ndarray, n: int) -> np.ndarray:
    if matrix.shape != (n, n):
        raise ValueError(f"matrix {name} has shape {matrix.shape}, expected ({n}, {n})")
    return matrix


@cache
def _cells() -> np.ndarray:
    """_cells()[k] is the 7-byte cell "%.4f," of k / 1e4, for k = 0..10000."""
    cells = np.tile(np.frombuffer(b"0.0000,", np.uint8), (10001, 1))
    cells[:, [0, 2, 3, 4, 5]] = np.arange(10001)[:, None] // [10000, 1000, 100, 10, 1] % 10 + 48
    return cells.view("V7").ravel()


def _row_blocks(matrix: np.ndarray) -> Iterator[np.ndarray]:
    """matrix, _BLOCK_ROWS rows at a time."""
    return (matrix[start:start + _BLOCK_ROWS] for start in range(0, len(matrix), _BLOCK_ROWS))


def _edge_blocks(network: Network, diagonal: float, values: np.ndarray) -> Iterator[np.ndarray]:
    """The n x n matrix with diagonal on its diagonal, values at the edges' cells and 0
    elsewhere, _BLOCK_ROWS rows at a time, each block built from zeros in one buffer."""
    n, cell = network.node_count, network.cell
    buffer = np.empty((min(_BLOCK_ROWS, n), n))
    for first in range(0, n, _BLOCK_ROWS):
        block = buffer[:n - first]
        block.fill(0.0)
        flat = block.reshape(-1)
        flat[first::n + 1] = diagonal
        low, high = np.searchsorted(cell, (first * n, (first + len(block)) * n))
        flat[cell[low:high] - first * n] = values[low:high]
        yield block


def _table_rows(blocks: Iterable[np.ndarray]) -> Iterator[bytes]:
    """Yield the rows of each block, "%.4f" cells joined by commas, a block at a time.

    One call formats a whole table: its temporaries then live until the next
    block's are made, and the allocator reuses their memory block after block
    instead of handing it back and faulting it in again.
    """
    for x in blocks:
        if x.dtype != np.float64 or not ((x <= 1.0) & ~np.signbit(x)).all():  # NaN, x < 0
            row_format = ",".join(["%.4f"] * x.shape[1]) + "\n"
            yield "".join([row_format % tuple(row.tolist()) for row in x]).encode()
            continue
        y = x * 1e4
        k = np.rint(y)
        rows = _cells().take(k.astype(np.intp)).view(np.uint8)
        rows[:, -1] = ord("\n")
        for i, j in zip(*np.nonzero(np.abs(y - k) >= 0.5 - 1e-9)):
            rows[i, 7 * j:7 * j + 6] = np.frombuffer(b"%.4f" % x[i, j], np.uint8)
        yield rows.tobytes()


def _result_rows(result: AssessmentResult) -> dict[str, Iterator[bytes]]:
    """The rows of each matrix section of result, keyed by section name."""
    network = result.network
    sections = (("T", 0.0, network.required), ("A", 1.0, network.direct_mean),
                ("B", 1.0, network.indirect_mean), ("C", 1.0, result.combined),
                ("R", 0.0, result.risk))
    return {name: _table_rows(_edge_blocks(network, diagonal, values))
            for name, diagonal, values in sections}


def _matrix_chunks(labels: Sequence[int], rows: Mapping[str, Iterator[bytes]],
                   comments: Sequence[str]) -> Iterator[bytes]:
    """The matrix table, lazily, from each section's rows."""
    head = [MATRIX_HEADER, *(f"# {comment}" for comment in comments),
            "labels," + ",".join(str(label) for label in labels)]
    return chain([("\n".join(head) + "\n").encode()],
                 *(chain([f"{name}\n".encode()], rows[name]) for name in MATRIX_SECTIONS))


def _risk_chunks(labels: Sequence[int], rows: Iterator[bytes]) -> Iterator[bytes]:
    """The risk table, lazily, a row at a time, from R's rows."""
    rows = (row for block in rows for row in block.splitlines(keepends=True))
    head = "node," + ",".join(str(label) for label in labels) + "\n"
    return chain([head.encode()], (f"{label},".encode() + row for label, row in zip(labels, rows)))


def render_matrices(labels: Sequence[int], matrices: Mapping[str, np.ndarray],
                    comments: Sequence[str] = ()) -> str:
    """Render the five named matrices as the comma-separated table format."""
    rows = {name: _table_rows(_row_blocks(_square(name, matrices[name], len(labels))))
            for name in MATRIX_SECTIONS}
    return b"".join(_matrix_chunks(labels, rows, comments)).decode()


def write_matrices(path: str | Path, result: AssessmentResult,
                   comments: Sequence[str] = ()) -> None:
    """Write the matrix table of result to path, a block at a time.

    The bytes are render_matrices(range(1, n + 1), result.as_matrix_dict(), comments).
    """
    labels = range(1, result.network.node_count + 1)
    chunks = _matrix_chunks(labels, _result_rows(result), comments)
    with open(path, "wb") as out:
        out.writelines(chunks)


def parse_matrices(text: str) -> tuple[list[int], dict[str, np.ndarray]]:
    """Parse the matrix table format back into labels and matrices."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines or not lines[0].startswith("labels,"):
        raise ValueError("matrix document must start with a labels line")
    try:
        labels = [int(cell) for cell in lines[0].split(",")[1:]]
    except ValueError as exc:
        raise ValueError(f"labels line: {exc}") from None
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
        for row in range(1, n + 1):
            cells = lines[cursor].split(",")
            if len(cells) != n:
                raise ValueError(f"section {name!r} row has {len(cells)} cells, expected {n}")
            try:
                rows.append([float(cell) for cell in cells])
            except ValueError as exc:
                raise ValueError(f"section {name!r} row {row}: {exc}") from None
            cursor += 1
        matrices[name] = np.array(rows)
    return labels, matrices


def render_risk_table(labels: Sequence[int], r_matrix: np.ndarray) -> str:
    """Per-node risk series as a plot-ready table: rows nodes, columns peers.

    The self column carries the diagonal convention 0.
    """
    rows = _table_rows(_row_blocks(_square("R", r_matrix, len(labels))))
    return b"".join(_risk_chunks(labels, rows)).decode()


def write_risk_table(path: str | Path, result: AssessmentResult) -> None:
    """Write the risk table of result to path, a row at a time.

    The bytes are render_risk_table(range(1, n + 1), result.r_matrix).
    """
    labels = range(1, result.network.node_count + 1)
    chunks = _risk_chunks(labels, _table_rows(_edge_blocks(result.network, 0.0, result.risk)))
    with open(path, "wb") as out:
        out.writelines(chunks)
