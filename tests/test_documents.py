"""File-format tests: network documents and matrix tables."""
import hashlib
import math
import re
from importlib import resources

import numpy as np
import pytest

from betatrust import (
    Edge,
    NetworkDocumentError,
    RiskAppetite,
    ScenarioConfig,
    TrustEstimate,
    generate_network,
    load_network,
    parse_matrices,
    render_matrices,
    render_risk_table,
    run_assessment,
    save_network,
)
from betatrust.documents import (
    document_to_network,
    load_bundled_three_node,
    network_to_document,
)

# guards the transcription of the bundled reference network
THREE_NODE_SHA256 = "53c763ede7bfe3566daa4b2c9f69844bcbb99a6e9ca6951049c882cabfacdb95"


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

    @pytest.mark.parametrize("key", ["1_0", " 2", "2 ", "02", "+2", "2.0"])
    def test_appetite_key_must_be_a_node_id_as_written(self, key):
        doc = minimal_document()
        doc["nodes"] = list(range(1, 11))
        doc["appetites"] = {key: 0.4}
        with pytest.raises(NetworkDocumentError, match="not a node id"):
            document_to_network(doc)

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

    def test_wrong_schema_version(self):
        doc = minimal_document()
        doc["schema_version"] = 99
        with pytest.raises(NetworkDocumentError, match="schema_version"):
            document_to_network(doc)

    def test_unparsable_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(NetworkDocumentError, match="not valid JSON"):
            load_network(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(NetworkDocumentError):
            load_network(tmp_path / "absent.json")


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

    def test_rendering_matches_the_format_spec_per_value(self):
        # ties at the fourth decimal, signed zero, tiny and large values
        rng = np.random.default_rng(5)
        specials = [0.0, -0.0, 0.00005, 0.00015, 0.12345, 0.99995, 1.0, 5e-324, 1e-300,
                    12345.678, -0.25, 0.1234499999999999, math.pi]
        values = np.concatenate((specials, rng.random(12 * 12 * 5 - len(specials))))
        matrices = dict(zip("TABCR", rng.permutation(values).reshape(5, 12, 12)))
        labels = list(range(1, 13))
        expected = ["# trust matrices v1", "labels," + ",".join(map(str, labels))]
        for name in "TABCR":
            expected.append(name)
            expected.extend(",".join(f"{v:.4f}" for v in row) for row in matrices[name])
        assert render_matrices(labels, matrices) == "\n".join(expected) + "\n"
        risk = ["node," + ",".join(map(str, labels))]
        risk.extend(f"{label}," + ",".join(f"{v:.4f}" for v in row)
                    for label, row in zip(labels, matrices["R"]))
        assert render_risk_table(labels, matrices["R"]) == "\n".join(risk) + "\n"
