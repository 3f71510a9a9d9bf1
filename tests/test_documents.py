"""File-format tests: network documents and matrix tables."""
import hashlib
import math
import os
import re
import tracemalloc
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from betatrust import (
    Edge,
    Network,
    NetworkDocumentError,
    RiskAppetite,
    ScenarioConfig,
    TrustEstimate,
    combined_trust,
    generate_network,
    load_network,
    parse_matrices,
    render_matrices,
    render_risk_table,
    run_assessment,
    save_network,
)
from betatrust import documents
from betatrust.decision import average_combiner
from betatrust.documents import (
    document_to_network,
    load_bundled_three_node,
    network_to_document,
    write_matrices,
    write_risk_table,
)

# guards the transcription of the bundled reference network
THREE_NODE_SHA256 = "53c763ede7bfe3566daa4b2c9f69844bcbb99a6e9ca6951049c882cabfacdb95"


def expected_tables(labels, matrices, comments=()):
    """The matrix and risk tables formatted one value at a time with f"{v:.4f}"."""
    labels_line = ",".join(map(str, labels))
    table = ["# trust matrices v1", *(f"# {comment}" for comment in comments),
             "labels," + labels_line]
    for name in "TABCR":
        table.append(name)
        table.extend(",".join(f"{v:.4f}" for v in row) for row in matrices[name])
    risk = ["node," + labels_line]
    risk.extend(f"{label}," + ",".join(f"{v:.4f}" for v in row)
                for label, row in zip(labels, matrices["R"]))
    return "\n".join(table) + "\n", "\n".join(risk) + "\n"


def assert_tables_match_the_format_spec(tmp_path, labels, matrices, comments=()):
    """render_matrices and render_risk_table give exactly the per-value tables.

    The writers format their blocks with the same code, and equal the renderers
    byte for byte (TestFixedWidthRendering.test_written_files_equal_the_rendered_strings).
    """
    table, risk = expected_tables(labels, matrices, comments)
    assert render_matrices(labels, matrices, comments) == table
    assert render_risk_table(labels, matrices["R"]) == risk


def rounding_boundaries():
    """Values in [0, 1] at and beside the places where "%.4f" rounds up."""
    halves = np.arange(1, 32, 2) / 32  # the only x with x * 1e4 exactly a half-integer
    ties = (np.arange(10_000) + 0.5) / 1e4
    centres = np.concatenate((halves, ties, [0.99995]))
    neighbours = (np.nextafter(centres, 0.0), np.nextafter(centres, 1.0))
    return np.concatenate((centres, *neighbours, [0.0, 1.0, 5e-324, 1 - 2**-53]))


def boundary_network():
    """A complete network whose T, A and B hold every rounding boundary, and some -0.0."""
    values = rounding_boundaries()
    n = math.isqrt(len(values)) + 2
    rng = np.random.default_rng(7)
    padded = np.concatenate((values, rng.random(n * (n - 1) - len(values))))
    src, dst = (end.ravel() + 1 for end in np.nonzero(~np.eye(n, dtype=bool)))
    means = [rng.permutation(padded) for _ in range(3)]
    for column in means:
        column[rng.integers(0, len(column), 5)] = -0.0
    variances = np.full(len(src), 0.01)
    return Network(n, src, dst, means[0], means[1], variances, means[2], variances,
                   rng.random(n) / 10)


def minimal_document():
    return {
        "schema_version": 1,
        "nodes": [1, 2],
        "edges": [
            {"from": 1, "to": 2, "required": 0.5, "direct_mean": 0.4, "indirect_mean": 0.6}
        ],
    }


class TestBundledFixture:
    def test_checksum(self):
        data = (
            resources.files("betatrust")
            .joinpath("data", "three_node_network.json")
            .read_bytes()
        )
        assert hashlib.sha256(data).hexdigest() == THREE_NODE_SHA256


class TestNetworkDocument:
    def test_round_trip(self):
        network = generate_network(
            ScenarioConfig(seed=29, node_count=6, edge_probability=0.5,
                           variance_direct=0.02, max_acceptable_risk=0.1)
        )
        assert document_to_network(network_to_document(network)) == network

    def test_loader_hands_network_typed_arrays(self, monkeypatch):
        # lists would make Network scan every item for a bool that the loader rejected
        doc, given = network_to_document(load_bundled_three_node()), []
        monkeypatch.setattr(documents, "Network",
                            lambda node_count, *columns: given.extend(columns))
        document_to_network(doc)
        assert [(type(column), column.dtype) for column in given] == (
            [(np.ndarray, np.int64)] * 2 + [(np.ndarray, np.float64)] * 6)
        # frozen, so that Network keeps them without a copy
        assert not any(column.flags.writeable for column in given)

    def test_save_load_round_trip(self, tmp_path):
        network = load_bundled_three_node()
        path = tmp_path / "net.json"
        save_network(network, path)
        assert load_network(path) == network

    def test_defaults_applied(self):
        doc = minimal_document()
        network = document_to_network(doc)
        edge = network.edges[(1, 2)]
        assert edge.direct.variance == 0.01
        assert edge.indirect.variance == 0.01
        assert network.appetite_for(1) == RiskAppetite(0.0)

    def test_document_defaults_override_package_defaults(self):
        doc = minimal_document()
        doc["defaults"] = {"variance": 0.03, "max_acceptable_risk": 0.25}
        network = document_to_network(doc)
        assert network.edges[(1, 2)].direct.variance == 0.03
        assert network.appetite_for(2) == RiskAppetite(0.25)

    def test_per_edge_variance_wins(self):
        doc = minimal_document()
        doc["edges"][0]["direct_variance"] = 0.002
        network = document_to_network(doc)
        assert network.edges[(1, 2)].direct.variance == 0.002
        assert network.edges[(1, 2)].indirect.variance == 0.01

    def test_per_node_appetite(self):
        doc = minimal_document()
        doc["appetites"] = {"2": 0.4}
        network = document_to_network(doc)
        assert network.appetite_for(1) == RiskAppetite(0.0)
        assert network.appetite_for(2) == RiskAppetite(0.4)

    # a key with braces or a % is printed as written, not read as a format string
    @pytest.mark.parametrize("key", ["1_0", " 2", "2 ", "02", "+2", "2.0", "{0}", "%s"])
    def test_appetite_key_must_be_a_node_id_as_written(self, key):
        doc = minimal_document()
        doc["nodes"] = list(range(1, 11))
        doc["appetites"] = {key: 0.4}
        with pytest.raises(NetworkDocumentError) as info:
            document_to_network(doc)
        assert str(info.value) == f"appetites.{key}: appetite key {key!r} is not a node id 1..10"

    @pytest.mark.parametrize(
        "value", [math.inf, -math.inf, math.nan, pytest.param(10**400, id="int-1e400")]
    )
    @pytest.mark.parametrize(
        "section, key, message",
        [
            ("defaults", "variance", "defaults: field 'variance'"),
            ("defaults", "max_acceptable_risk", "defaults: field 'max_acceptable_risk'"),
            ("appetites", "2", "appetites.2: field 'appetite'"),
            ("edge", "required", "edges[0]: field 'required'"),
            ("edge", "direct_mean", "edges[0]: field 'direct_mean'"),
            ("edge", "indirect_mean", "edges[0]: field 'indirect_mean'"),
            ("edge", "direct_variance", "edges[0]: field 'direct_variance'"),
            ("edge", "indirect_variance", "edges[0]: field 'indirect_variance'"),
        ],
    )
    def test_non_finite_number_rejected_with_its_path(self, section, key, message, value):
        doc = minimal_document()
        target = doc["edges"][0] if section == "edge" else doc.setdefault(section, {})
        target[key] = value
        with pytest.raises(NetworkDocumentError, match=re.escape(f"{message} must be finite")):
            document_to_network(doc)

    @pytest.mark.parametrize("section, key, value, where, message", [
        ("edge", "required", "0.5", "edges[0]", "field 'required' must be a number, got '0.5'"),
        ("edge", "indirect_mean", None, "edges[0]",
         "field 'indirect_mean' must be a number, got None"),
        ("defaults", "variance", True, "defaults", "field 'variance' must be a number, got True"),
        ("appetites", "2", [0.1], "appetites.2", "field 'appetite' must be a number, got [0.1]"),
        ("edge", "direct_variance", 0.0, "edges[0]",
         "field 'direct_variance' must be positive, got 0.0"),
        ("defaults", "variance", -1, "defaults", "field 'variance' must be positive, got -1.0"),
        ("edge", "direct_mean", ..., "edges[0]", "missing field 'direct_mean'"),
        ("defaults", "max_acceptable_risk", 2, "defaults",
         "field 'max_acceptable_risk' must lie in [0, 1], got 2.0"),
        ("appetites", "2", 2, "appetites.2", "field 'appetite' must lie in [0, 1], got 2.0"),
        ("edge", "from", 1.0, "edges[0]", "field 'from' must be an integer node id"),
        ("edge", "to", True, "edges[0]", "field 'to' must be an integer node id"),
    ])
    def test_invalid_field_named_with_its_path(self, section, key, value, where, message):
        # value ... deletes the field
        doc = minimal_document()
        target = doc["edges"][0] if section == "edge" else doc.setdefault(section, {})
        if value is ...:
            del target[key]
        else:
            target[key] = value
        with pytest.raises(NetworkDocumentError) as info:
            document_to_network(doc)
        assert (info.value.where, str(info.value)) == (where, f"{where}: {message}")

    def test_infinity_in_file_rejected(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(
            '{"schema_version": 1, "nodes": [1, 2], "edges": [{"from": 1, "to": 2,'
            ' "required": 0.5, "direct_mean": 0.4, "indirect_mean": 0.6,'
            ' "direct_variance": Infinity}]}',
            encoding="utf-8",
        )
        with pytest.raises(NetworkDocumentError, match=r"edges\[0\].*direct_variance"):
            load_network(path)

    @pytest.mark.parametrize("bound", [0.0, 1.0])
    def test_unit_interval_ends_accepted(self, bound):
        doc = minimal_document()
        doc["defaults"] = {"max_acceptable_risk": bound}
        doc["appetites"] = {"2": bound}
        doc["edges"][0].update(required=bound, direct_mean=bound, indirect_mean=bound)
        network = document_to_network(doc)
        assert network.edges[(1, 2)] == Edge(bound, TrustEstimate(bound), TrustEstimate(bound))
        assert network.max_risk.tolist() == [bound, bound]

    def test_range_violation_names_the_edge(self):
        doc = minimal_document()
        doc["edges"][0]["required"] = 1.2
        with pytest.raises(NetworkDocumentError, match=r"edges\[0\].*required"):
            document_to_network(doc)

    def test_unknown_endpoint_named(self):
        doc = minimal_document()
        doc["edges"][0]["to"] = 9
        with pytest.raises(NetworkDocumentError, match=r"edges\[0\].*unknown node 9"):
            document_to_network(doc)

    def test_duplicate_edge_rejected(self):
        doc = minimal_document()
        doc["edges"].append(dict(doc["edges"][0]))
        with pytest.raises(NetworkDocumentError, match=r"^edges: duplicate edge \(1, 2\)$"):
            document_to_network(doc)

    def test_self_edge_rejected(self):
        doc = minimal_document()
        doc["edges"][0]["to"] = 1
        with pytest.raises(NetworkDocumentError,
                           match=r"^edges: self-edge \(1, 1\) is not allowed$"):
            document_to_network(doc)

    def test_non_contiguous_ids_rejected(self):
        doc = minimal_document()
        doc["nodes"] = [1, 3]
        with pytest.raises(NetworkDocumentError, match="consecutive"):
            document_to_network(doc)

    def test_duplicate_ids_rejected(self):
        doc = minimal_document()
        doc["nodes"] = [1, 1]
        with pytest.raises(NetworkDocumentError, match="unique"):
            document_to_network(doc)

    @pytest.mark.parametrize("version", [99, True, 1.0, "1"])  # True and 1.0 equal 1
    def test_wrong_schema_version(self, version):
        doc = minimal_document()
        doc["schema_version"] = version
        with pytest.raises(NetworkDocumentError) as info:
            document_to_network(doc)
        assert str(info.value) == (
            f"schema_version: unsupported schema_version {version!r} (expected 1)")

    def test_unparsable_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(NetworkDocumentError, match="not valid JSON"):
            load_network(path)

    @pytest.mark.parametrize("data", [
        '{"note": "café"}'.encode("latin-1"),  # not UTF-8
        b"[" * 100_000 + b"]" * 100_000,  # deeper than the parser recurses
    ], ids=["latin-1", "nested"])
    def test_unreadable_document_names_the_file(self, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        with pytest.raises(NetworkDocumentError, match="not valid JSON") as info:
            load_network(path)
        assert info.value.where == str(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(NetworkDocumentError):
            load_network(tmp_path / "absent.json")

    def test_path_with_nul_byte(self, tmp_path):
        path = tmp_path / "nul\0.json"
        with pytest.raises(NetworkDocumentError, match="null byte") as info:
            load_network(path)
        assert info.value.where == str(path)


class TestMatrixTable:
    def test_fixture_rendering_matches_reference_values(self):
        result = run_assessment(load_bundled_three_node())
        text = render_matrices([1, 2, 3], result.as_matrix_dict())
        lines = text.splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "labels,1,2,3"
        t_start = lines.index("T") + 1
        assert lines[t_start] == "0.0000,0.4546,0.7148"
        a_start = lines.index("A") + 1
        assert lines[a_start] == "1.0000,0.5133,0.6844"
        b_start = lines.index("B") + 1
        assert lines[b_start + 2] == "0.4558,0.0777,1.0000"

    def test_four_decimal_rendering_parses_back_close(self):
        result = run_assessment(load_bundled_three_node())
        text = render_matrices([1, 2, 3], result.as_matrix_dict())
        labels, matrices = parse_matrices(text)
        assert labels == [1, 2, 3]
        for name, matrix in result.as_matrix_dict().items():
            assert np.max(np.abs(matrices[name] - matrix)) <= 5e-5

    def test_round_trip_random_matrices(self):
        rng = np.random.default_rng(17)
        matrices = {name: rng.uniform(0, 1, (4, 4)) for name in "TABCR"}
        text = render_matrices([1, 2, 3, 4], matrices)
        labels, parsed = parse_matrices(text)
        assert labels == [1, 2, 3, 4]
        for name in "TABCR":
            assert np.max(np.abs(parsed[name] - matrices[name])) <= 5e-5

    def test_comments_are_ignored_by_parser(self):
        result = run_assessment(load_bundled_three_node())
        text = render_matrices([1, 2, 3], result.as_matrix_dict(),
                               comments=["combiner: beta", "anything"])
        labels, _ = parse_matrices(text)
        assert labels == [1, 2, 3]

    def test_section_order_enforced(self):
        result = run_assessment(load_bundled_three_node())
        text = render_matrices([1, 2, 3], result.as_matrix_dict())
        scrambled = text.replace("\nT\n", "\nX\n", 1)
        with pytest.raises(ValueError, match="expected section"):
            parse_matrices(scrambled)

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: lines[:2] + lines[3:], "matrix document must start with a labels line"),
        (lambda lines: [], "matrix document must start with a labels line"),
        (lambda lines: lines[:-1], "matrix document has the wrong number of lines"),
        (lambda lines: lines + ["0.0000,0.0000,0.0000"],
         "matrix document has the wrong number of lines"),
        (lambda lines: [line.replace("0.0000,0.4546,", "0.4546,") for line in lines],
         "section 'T' row has 2 cells, expected 3"),
        (lambda lines: [line.replace("labels,1,", "labels,a,") for line in lines],
         "labels line: invalid literal for int() with base 10: 'a'"),
        (lambda lines: lines[:-2] + ["0.0000,x,0.0000"] + lines[-1:],
         "section 'R' row 2: could not convert string to float: 'x'"),
    ], ids=["no-labels", "empty", "line-missing", "line-extra", "short-row", "bad-label",
            "bad-cell"])
    def test_malformed_table_rejected(self, edit, message):
        result = run_assessment(load_bundled_three_node())
        lines = render_matrices([1, 2, 3], result.as_matrix_dict(), ["c"]).splitlines()
        assert lines[:3] == ["# trust matrices v1", "# c", "labels,1,2,3"]
        with pytest.raises(ValueError) as info:
            parse_matrices("\n".join(edit(lines)) + "\n")
        assert str(info.value) == message

    def test_wrong_shape_rejected(self):
        matrices = {name: np.zeros((2, 2)) for name in "TABCR"}
        matrices["C"] = np.zeros((3, 3))
        with pytest.raises(ValueError, match="shape"):
            render_matrices([1, 2], matrices)

    def test_risk_table_layout(self):
        result = run_assessment(load_bundled_three_node())
        text = render_risk_table([1, 2, 3], result.r_matrix)
        lines = text.splitlines()
        assert lines[0] == "node,1,2,3"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1"
        assert first[1] == "0.0000"  # self cell carries the diagonal convention
        assert first[3] == "0.1088"  # risk of edge 1->3 to 4 decimals

    def test_rendering_matches_the_format_spec_per_value(self, tmp_path):
        # ties at the fourth decimal, signed zero, tiny and large values
        rng = np.random.default_rng(5)
        specials = [0.0, -0.0, 0.00005, 0.00015, 0.12345, 0.99995, 1.0, 5e-324, 1e-300,
                    12345.678, -0.25, 0.1234499999999999, math.pi]
        values = np.concatenate((specials, rng.random(12 * 12 * 5 - len(specials))))
        matrices = dict(zip("TABCR", rng.permutation(values).reshape(5, 12, 12)))
        assert_tables_match_the_format_spec(tmp_path, list(range(1, 13)), matrices)

    @pytest.mark.parametrize("shape, labels", [((3, 3), [1, 2]), ((2, 5), [1, 2]),
                                               ((2, 2), [1, 2, 3])])
    def test_risk_table_rejects_a_matrix_of_another_shape(self, shape, labels):
        message = re.escape(f"matrix R has shape {shape}, expected")
        with pytest.raises(ValueError, match=message):
            render_risk_table(labels, np.zeros(shape))


class TestFixedWidthRendering:
    """Blocks of values in [0, 1] are cut from a cell table, not formatted one by one."""

    def test_rounding_boundaries(self, tmp_path):
        values = rounding_boundaries()
        # the data must hold cells where rounding fl(x * 1e4) differs from "%.4f"
        naive = ["%d.%04d" % divmod(int(k), 10_000) for k in np.rint(values * 1e4)]
        assert sum(n != f"{v:.4f}" for n, v in zip(naive, values)) > 1000
        n = math.isqrt(len(values) - 1) + 1
        rng = np.random.default_rng(11)
        padded = np.concatenate((values, rng.random(n * n - len(values))))
        matrices = {name: rng.permutation(padded).reshape(n, n) for name in "TABCR"}
        assert_tables_match_the_format_spec(tmp_path, list(range(1, n + 1)), matrices)

    def test_general_block_between_fixed_width_blocks(self, tmp_path):
        rng = np.random.default_rng(23)
        # transposed, so that every block is a non-contiguous view
        matrices = {name: rng.random((150, 150)).T for name in "TABCR"}
        for matrix in matrices.values():  # rows 64..127 form the middle block of three
            matrix[70, 3], matrix[80, 100], matrix[127, 149] = -0.0, math.nan, 1.5
            matrix[0, 0], matrix[149, 149] = 0.00015, 0.99995
        assert_tables_match_the_format_spec(tmp_path, list(range(1, 151)), matrices,
                                            comments=["combiner: beta"])

    @pytest.mark.parametrize("special", [-0.0, math.nan, math.inf, 1.5, 1.00005, 1.99995,
                                         -1e-300, -0.5])
    def test_one_value_outside_the_unit_interval(self, tmp_path, special):
        # the only value of its block that a 6-byte cell cannot hold
        matrices = {name: np.full((3, 3), 0.25) for name in "TABCR"}
        matrices["C"][1, 2] = matrices["R"][2, 0] = special
        assert_tables_match_the_format_spec(tmp_path, [1, 2, 3], matrices)

    def test_non_float_matrices_keep_the_format_spec(self, tmp_path):
        matrices = {name: np.eye(2, dtype=int) for name in "TAB"}
        matrices["C"] = np.array([[0.5, True], [False, 0.25]], dtype=object)
        matrices["R"] = np.array([[0, 1], [1, 0]], dtype=bool)
        assert_tables_match_the_format_spec(tmp_path, [1, 2], matrices)
        matrices["R"] = np.array([["0.5", "0"], ["0", "0"]])
        with pytest.raises(TypeError):
            render_risk_table([1, 2], matrices["R"])

    @pytest.mark.parametrize("network", [
        pytest.param(Network(1, [], [], [], [], [], [], [], [0.0]), id="n=1"),
        pytest.param(generate_network(ScenarioConfig(seed=3, node_count=7,
                                                     edge_probability=0.0)), id="edgeless"),
        pytest.param(load_bundled_three_node(), id="three-node"),
        # three blocks of rows, edge errors, and edges in the last row and column
        pytest.param(generate_network(ScenarioConfig(seed=5, node_count=150, edge_probability=0.3,
                                                     variance_direct=0.05)), id="n=150"),
        pytest.param(generate_network(ScenarioConfig(seed=6, node_count=64,
                                                     edge_probability=1.0)), id="one-block"),
        pytest.param(generate_network(ScenarioConfig(seed=6, node_count=65,
                                                     edge_probability=1.0)), id="one-row-more"),
        pytest.param(boundary_network(), id="rounding-boundaries"),
    ])
    @pytest.mark.parametrize("combiner", [combined_trust, average_combiner])
    # rows per block, through the cell budget: block boundaries fall at every offset
    @pytest.mark.parametrize("rows", [None, 1, 2, 3, 7, "n"])
    def test_written_files_equal_the_rendered_strings(self, monkeypatch, tmp_path, network,
                                                      combiner, rows):
        n = network.node_count
        if rows is not None:
            monkeypatch.setattr(documents, "_BLOCK_CELLS", n * (n if rows == "n" else rows))
        result = run_assessment(network, combiner)
        labels = list(range(1, network.node_count + 1))
        write_matrices(tmp_path / "matrices.csv", result, ["combiner: beta"])
        write_risk_table(tmp_path / "risk_series.csv", result)
        assert (tmp_path / "matrices.csv").read_bytes() == render_matrices(
            labels, result.as_matrix_dict(), ["combiner: beta"]).encode()
        assert (tmp_path / "risk_series.csv").read_bytes() == render_risk_table(
            labels, result.r_matrix).encode()

    @pytest.mark.parametrize("writer", [write_matrices, write_risk_table])
    def test_writer_memory_is_bounded_by_the_cell_budget(self, writer):
        # blocks of 64 rows of 2000 cells once peaked at about 6 MB
        network = generate_network(ScenarioConfig(seed=0, node_count=2000, edge_probability=0.001))
        result = run_assessment(network)
        writer(os.devnull, result)  # and so fills the cached cell table
        tracemalloc.start()
        try:
            writer(os.devnull, result)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    @settings(max_examples=100, deadline=None)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 6)).map(lambda n: (5, n[0], n[0])),
                      elements=st.one_of(
                          st.floats(0.0, 1.0),
                          st.integers(0, 9_999).map(lambda k: (k + 0.5) / 1e4),
                          st.sampled_from([-0.0, math.nan, 1.0 + 2**-52, 1.5, -5e-324]))))
    def test_any_matrix_matches_the_format_spec(self, stack):
        labels = list(range(1, stack.shape[1] + 1))
        matrices = dict(zip("TABCR", stack))
        table, risk = expected_tables(labels, matrices)
        assert render_matrices(labels, matrices) == table
        assert render_risk_table(labels, matrices["R"]) == risk
