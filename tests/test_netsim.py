"""Network generation and batch assessment tests.

Includes a straight-line oracle: a self-contained re-implementation of
the moment inversion, kernel-product posterior and decision chain that
never calls into the package's fusion or decision modules, compared
entry-for-entry against run_assessment on small networks.
"""
import itertools
import json
import math
import os
import tracemalloc
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betatrust import (
    ConfigurationError,
    Decision,
    Edge,
    InvalidVarianceError,
    Network,
    RangeError,
    RiskAppetite,
    ScenarioConfig,
    TrustError,
    TrustEstimate,
    combined_trust,
    evaluate_request,
    fifteen_node_config,
    generate_network,
    run_assessment,
)
from betatrust import netsim
from betatrust.decision import COMBINERS, DECISIONS, FAILED, average_combiner
from betatrust.documents import (
    load_bundled_three_node,
    load_network,
    network_to_document,
    save_network,
    write_matrices,
    write_risk_table,
)
from betatrust.fusion import MEAN_EPSILON

COMBINED_13 = 0.6060471220991707
COMBINED_31 = 0.46050709786418943
RISK_13 = 0.10875287790082932
RISK_31 = 0.12409290213581057


def oracle_assessment(network):
    """Independent straight-line re-computation of the whole pipeline."""
    n = network.node_count
    eps = 1e-6
    t = np.zeros((n, n))
    r = np.zeros((n, n))
    a = np.eye(n)
    b = np.eye(n)
    c = np.eye(n)
    decisions = {}
    for (i, j), edge in network.edges.items():
        t[i - 1, j - 1] = edge.required
        a[i - 1, j - 1] = edge.direct.mean
        b[i - 1, j - 1] = edge.indirect.mean
        if edge.direct.mean >= edge.required:
            decisions[(i, j)] = Decision.ACCEPT_DIRECT
            continue
        if edge.indirect.mean >= edge.required:
            decisions[(i, j)] = Decision.ACCEPT_INDIRECT
            continue
        ma = min(max(edge.direct.mean, eps), 1 - eps)
        mb = min(max(edge.indirect.mean, eps), 1 - eps)
        alpha_a = ma * (ma * (1 - ma) / edge.direct.variance - 1)
        beta_a = alpha_a * (1 - ma) / ma
        alpha_b = mb * (mb * (1 - mb) / edge.indirect.variance - 1)
        beta_b = alpha_b * (1 - mb) / mb
        k = alpha_a + beta_a + alpha_b + beta_b - 2
        w_a = (alpha_a + beta_a) / k
        w_b = (alpha_b + beta_b) * (alpha_b - 1) / (alpha_b * k)
        combined = ma * w_a + mb * w_b
        risk = max(0.0, edge.required - combined)
        c[i - 1, j - 1] = combined
        r[i - 1, j - 1] = risk
        appetite = network.appetite_for(i).max_acceptable_risk
        if risk == 0.0:
            decisions[(i, j)] = Decision.ACCEPT_COMBINED
        elif risk <= appetite:
            decisions[(i, j)] = Decision.ACCEPT_WITH_RISK
        else:
            decisions[(i, j)] = Decision.DECLINE
    return t, a, b, c, r, decisions


def network_from_edges(node_count, edges, max_risk=None):
    """A Network from {(i, j): Edge}; max_risk defaults to 0 for every node."""
    rows = [(i, j, e.required, e.direct.mean, e.direct.variance, e.indirect.mean,
             e.indirect.variance) for (i, j), e in edges.items()]
    columns = [list(column) for column in zip(*rows)] if rows else [[]] * 7
    return Network(node_count, *columns, [0.0] * node_count if max_risk is None else max_risk)


class TestScenarioConfig:
    def test_rejects_single_node(self):
        # and node counts that are not integers
        for node_count in (1, 3.5, 3.0, True, "3"):
            with pytest.raises(ConfigurationError):
                ScenarioConfig(seed=1, node_count=node_count, edge_probability=0.5)

    def test_rejects_bad_probability(self):
        with pytest.raises(RangeError) as info:
            ScenarioConfig(seed=1, node_count=3, edge_probability=1.2)
        assert str(info.value) == "edge_probability must lie in [0, 1], got 1.2"

    def test_rejects_bad_seed(self):
        for seed in (-1, 2**64, 1.5, 1.0, True, np.bool_(True), None):
            with pytest.raises(ConfigurationError):
                ScenarioConfig(seed=seed, node_count=3, edge_probability=0.5)

    def test_numpy_integers_accepted(self):
        config = ScenarioConfig(seed=np.uint64(196), node_count=np.int64(15), edge_probability=0.3)
        assert generate_network(config) == generate_network(fifteen_node_config())


class TestGenerateNetwork:
    def test_deterministic(self):
        config = ScenarioConfig(seed=77, node_count=8, edge_probability=0.4)
        first = generate_network(config)
        second = generate_network(config)
        assert first == second
        assert json.dumps(network_to_document(first)) == json.dumps(
            network_to_document(second)
        )

    def test_zero_probability_gives_no_edges(self):
        config = ScenarioConfig(seed=3, node_count=5, edge_probability=0.0)
        assert generate_network(config).edges == {}

    def test_full_probability_gives_complete_digraph(self):
        config = ScenarioConfig(seed=3, node_count=15, edge_probability=1.0)
        assert len(generate_network(config).edges) == 15 * 14

    def test_seed_changes_network(self):
        base = ScenarioConfig(seed=1, node_count=6, edge_probability=0.5)
        other = ScenarioConfig(seed=2, node_count=6, edge_probability=0.5)
        assert generate_network(base) != generate_network(other)

    def test_variances_and_appetite_applied(self):
        config = ScenarioConfig(
            seed=5,
            node_count=4,
            edge_probability=1.0,
            variance_direct=0.004,
            variance_indirect=0.008,
            max_acceptable_risk=0.2,
        )
        network = generate_network(config)
        edge = network.edges[(1, 2)]
        assert edge.direct.variance == 0.004
        assert edge.indirect.variance == 0.008
        assert network.appetite_for(3) == RiskAppetite(0.2)


def generate_v1(config):
    """Draw order v1, one scalar rng.random() call per value."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    nodes = range(1, config.node_count + 1)
    edges = {}
    for i in nodes:
        for j in nodes:
            if i == j or rng.random() >= config.edge_probability:
                continue
            edges[(i, j)] = Edge(
                rng.random(),
                TrustEstimate(rng.random(), config.variance_direct),
                TrustEstimate(rng.random(), config.variance_indirect),
            )
    return network_from_edges(config.node_count, edges,
                              [config.max_acceptable_risk] * config.node_count)


@pytest.mark.parametrize("chunk", [1, 2, 3, 4, 5, 17, netsim.CHUNK])
def test_generation_follows_draw_order_v1(monkeypatch, chunk):
    # small chunks cut edge records at every possible offset
    monkeypatch.setattr(netsim, "CHUNK", chunk)
    for seed, nodes, probability in [(0, 2, 0.5), (3, 7, 0.0), (5, 7, 1.0), (11, 12, 0.3),
                                     (196, 15, 0.3), (8, 9, 0.95)]:
        config = ScenarioConfig(seed=seed, node_count=nodes, edge_probability=probability,
                                variance_direct=0.02, max_acceptable_risk=0.1)
        assert generate_network(config) == generate_v1(config)


@pytest.mark.parametrize("chunk", [1, 3, 17, netsim.CHUNK])
@pytest.mark.parametrize("room", [0, 1, 5])
def test_generation_widens_rows_too_short_for_the_edges(monkeypatch, chunk, room):
    # the estimate leaves room for six standard deviations; here it leaves almost none
    monkeypatch.setattr(netsim, "CHUNK", chunk)
    monkeypatch.setattr(netsim, "_capacity", lambda pairs, probability: room)
    for seed, nodes, probability in [(0, 2, 0.5), (5, 7, 1.0), (11, 12, 0.3), (8, 9, 0.95)]:
        config = ScenarioConfig(seed=seed, node_count=nodes, edge_probability=probability)
        assert generate_network(config) == generate_v1(config)


@pytest.mark.parametrize("pairs, probability", [(2, 0.0), (2, 1.0), (89_700, 1.0),
                                                (89_700, 0.5), (8_997_000, 0.01), (10**8, 1e-6)])
def test_capacity_covers_six_standard_deviations(pairs, probability):
    mean = pairs * probability
    room = netsim._capacity(pairs, probability)
    assert room == pairs or room >= mean + 6 * math.sqrt(mean * (1 - probability))
    assert room <= pairs


def edge_starts_loop(draws, probability):
    """The per-hit parse: a record starts at each hit that no earlier record covers."""
    starts = []
    free = 0  # first draw not taken by the last edge record
    for position in np.flatnonzero(draws < probability).tolist():
        if position >= free:
            starts.append(position)
            free = position + 4
    return np.array(starts, dtype=np.int64)


def hand_made_chunks():
    hit, miss = 0.0, 0.75  # against probability 0.5
    yield [miss] * 9  # no hits
    yield [hit] * 9  # all hits
    for last in (1, 2, 3):  # a hit in each of the last three positions
        yield [miss] * (9 - last) + [hit] + [miss] * (last - 1)
    for before in (4, 5):  # a run of hits cut by one miss, on a record's start or inside it
        yield [hit] * before + [miss] + [hit] * 6
    yield [hit]


@pytest.mark.parametrize("draws", [
    *(np.random.default_rng(seed).random(size) for seed, size in
      itertools.product(range(3), (1, 2, 5, 9, 64, 1000))),
    *(np.array(chunk) for chunk in hand_made_chunks()),
])
@pytest.mark.parametrize("probability", [0.0, 1e-3, 0.3, 0.5, 0.999, 1.0])
def test_edge_starts_match_the_per_hit_loop(draws, probability):
    starts = netsim._edge_starts(draws, probability)
    assert starts.dtype == np.int64
    np.testing.assert_array_equal(starts, edge_starts_loop(draws, probability))


def owned_bytes(arrays):
    """Bytes of the buffers under arrays, each distinct base buffer counted once."""
    bases = {}
    for array in arrays:
        while isinstance(array.base, np.ndarray):
            array = array.base
        bases[id(array)] = array.nbytes
    return sum(bases.values())


def test_generation_peaks_within_a_quarter_above_what_the_network_owns():
    # a first call in the process would also count the lazy imports it triggers
    generate_network(ScenarioConfig(seed=1, node_count=3, edge_probability=1.0))
    tracemalloc.start()
    try:
        network = generate_network(ScenarioConfig(seed=501, node_count=300, edge_probability=1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = ("src", "dst", "max_risk", *netsim.EDGE_COLUMNS)
    assert peak <= 1.25 * owned_bytes(getattr(network, name) for name in columns)


def test_sorted_frozen_columns_cost_less_than_one_int64_column():
    # such columns are kept as given, and the order check compares adjacent (src, dst)
    # pairs into bool temporaries: no column-length int64 key is made
    network = generate_network(ScenarioConfig(seed=501, node_count=300, edge_probability=1.0))
    columns = [network.src, network.dst, *(getattr(network, name) for name in netsim.EDGE_COLUMNS)]
    Network(300, *columns, network.max_risk)  # any lazy allocation happens outside the trace
    tracemalloc.start()
    try:
        Network(300, *columns, network.max_risk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < network.src.nbytes


def test_a_simulate_run_holds_no_dense_matrix():
    n = 1000
    generate_network(ScenarioConfig(seed=1, node_count=3, edge_probability=1.0))
    tracemalloc.start()
    try:
        network = generate_network(ScenarioConfig(seed=3, node_count=n, edge_probability=0.002))
        result = run_assessment(network)
        write_matrices(os.devnull, result, ["combiner: beta"])
        write_risk_table(os.devnull, result)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(network.src) > 1000
    assert peak < n * n * 8


class TestColumns:
    def network(self):
        return generate_network(ScenarioConfig(seed=4, node_count=5, edge_probability=0.6))

    def columns(self, network):
        floats = [getattr(network, name) for name in netsim.EDGE_COLUMNS]
        return [network.src, network.dst, *floats]

    def test_mapping_and_column_forms_agree(self):
        network = self.network()
        assert network_from_edges(5, dict(network.edges), network.max_risk) == network
        order = np.arange(len(network.src))[::-1]
        reversed_columns = [column[order] for column in self.columns(network)]
        assert Network(5, *reversed_columns, network.max_risk) == network

    def test_columns_are_row_major_and_read_only(self):
        network = self.network()
        cells = (network.src - 1) * 5 + network.dst - 1
        assert np.all(np.diff(cells) > 0)
        for column in (*self.columns(network), network.max_risk):
            with pytest.raises(ValueError):
                column[0] = 0.5

    def test_frozen_columns_are_kept_and_writable_ones_copied(self):
        network = self.network()
        frozen = self.columns(network)
        writable = [column.copy() for column in frozen]
        for given, stored in zip(frozen, self.columns(Network(5, *frozen, network.max_risk))):
            assert stored is given and np.shares_memory(stored, given)
        for given, stored in zip(writable, self.columns(Network(5, *writable, network.max_risk))):
            assert not np.shares_memory(stored, given)
            assert given.flags.writeable and not stored.flags.writeable

    @pytest.mark.parametrize("dtype, kept", [(np.float64, True), (np.float32, False)])
    @pytest.mark.parametrize("writeable", [True, False])
    def test_a_column_is_kept_only_frozen_and_of_its_dtype(self, dtype, kept, writeable):
        base = np.array([0.75, 0.5, 0.25], dtype=dtype)
        base.flags.writeable = writeable
        required = base[::-2]  # a strided view, read-only exactly when its base is
        ones = np.full(2, 0.5)
        network = Network(2, [1, 2], [2, 1], required, ones, ones, ones, ones, np.zeros(2))
        assert np.shares_memory(network.required, required) == (kept and not writeable)
        assert network.required.tolist() == [0.25, 0.75]
        assert not network.required.flags.writeable

    def test_a_read_only_view_of_writable_memory_is_copied(self, tmp_path):
        variance = np.array(0.01)
        path = tmp_path / "required.npy"
        np.save(path, np.array([0.25, 0.75]))
        file = np.lib.format.open_memmap(path, mode="r+")
        memory = bytearray(np.array([0.5, 0.5]).tobytes())
        frozen_view = np.array([0.5, 0.9, 0.5])
        given = {
            "direct_variance": np.broadcast_to(variance, 2),  # a view of a writable 0-d array
            "required": np.load(path, mmap_mode="r"),  # a map of a file that can change
            "direct_mean": np.frombuffer(memoryview(memory).toreadonly()),
            "indirect_mean": frozen_view[::2],
        }
        given["indirect_mean"].flags.writeable = False  # its base stays writable
        ones = np.full(2, 0.5)
        network = Network(2, [1, 2], [2, 1], *(given.get(name, ones) for name in netsim.EDGE_COLUMNS),
                          np.zeros(2))
        variance[()], file[:], memory[:8], frozen_view[0] = -1.0, 1.0, bytes(8), 0.1
        file.flush()
        assert network.direct_variance.tolist() == [0.01, 0.01]
        assert network.required.tolist() == [0.25, 0.75]
        assert network.direct_mean.tolist() == [0.5, 0.5]
        assert network.indirect_mean.tolist() == [0.5, 0.5]
        for name, column in given.items():
            assert not np.shares_memory(getattr(network, name), column), name

    def test_caller_arrays_stay_writable(self):
        src, dst = np.array([2, 1]), np.array([1, 2])
        required = np.array([0.5, 0.25])
        Network(2, src, dst, required, required, required + 0.1, required, required + 0.1,
                np.zeros(2))
        required[0] = 0.75
        assert src.flags.writeable

    # adjacent duplicates, and duplicates apart in shuffled columns: the first in row-major
    # order is named
    @pytest.mark.parametrize("src, dst, edge", [
        ([1, 1], [2, 2], "(1, 2)"), ([2, 1, 2], [3, 2, 3], "(2, 3)"),
        ([1, 3, 1, 3, 1], [3, 1, 2, 1, 3], "(1, 3)"), ([3, 3, 1, 1], [2, 1, 2, 2], "(1, 2)")])
    def test_duplicate_edge_rejected(self, src, dst, edge):
        ones = np.full(len(src), 0.5)
        with pytest.raises(ConfigurationError) as info:
            Network(3, src, dst, ones, ones, ones, ones, ones, np.zeros(3))
        assert str(info.value) == f"duplicate edge {edge}"

    @pytest.mark.parametrize("change, error, message", [
        ({"src": 2}, ConfigurationError, "self-edge (2, 2) is not allowed"),
        ({"dst": 4}, ConfigurationError, "edge (1, 4) endpoint out of range 1..3"),
        ({"required": 1.5}, RangeError, "edge (1, 2): required must lie in [0, 1], got 1.5"),
        ({"direct_mean": -0.5}, RangeError,
         "edge (1, 2): direct_mean must lie in [0, 1], got -0.5"),
        ({"indirect_variance": 0.0}, InvalidVarianceError,
         "edge (1, 2): indirect_variance must be positive, got 0.0"),
        ({"max_risk": 2.0}, RangeError, "node 2: max_risk must lie in [0, 1], got 2.0"),
        ({"src": [1, 2], "dst": [2, 3], "indirect_mean": [0.5, -0.5]}, RangeError,
         "edge (2, 3): indirect_mean must lie in [0, 1], got -0.5"),
        ({"direct_variance": math.nan}, InvalidVarianceError,
         "edge (1, 2): direct_variance must be positive, got nan"),
        ({"max_risk": [0.0, 0.0, -0.25]}, RangeError,
         "node 3: max_risk must lie in [0, 1], got -0.25"),
        # columns are checked in EDGE_COLUMNS order, each from its first edge
        ({"required": [0.5, 1.5], "indirect_mean": [-0.5, 0.3]}, RangeError,
         "edge (1, 2): required must lie in [0, 1], got 1.5"),
        # a node count that numpy would read as 1, or take only until it indexes
        ({"node_count": 2.0}, ConfigurationError, "node_count must be an integer, got 2.0"),
        ({"node_count": True}, ConfigurationError, "node_count must be an integer, got True"),
        # endpoints that an integer cast would truncate or read as node 1
        ({"src": 1.9, "dst": 2.2}, ConfigurationError,
         "src must hold integer node ids, got float64"),
        ({"dst": 2.0}, ConfigurationError, "dst must hold integer node ids, got float64"),
        ({"src": [True, True]}, ConfigurationError, "src must hold integer node ids, got bool"),
        ({"dst": [3, None]}, ConfigurationError, "dst must hold integer node ids, got object"),
        # whole float columns that a float cast would read as numbers
        ({"required": [True, False]}, ConfigurationError, "required must hold numbers, got bool"),
        ({"direct_mean": ["0.5", "0.4"]}, ConfigurationError,
         "direct_mean must hold numbers, got <U3"),
        ({"direct_variance": [0.01, None]}, ConfigurationError,
         "direct_variance must hold numbers, got object"),
        ({"indirect_mean": [0.5, "0.3"]}, ConfigurationError,
         "indirect_mean must hold numbers, got <U32"),
        ({"indirect_variance": [0.01, 1j]}, ConfigurationError,
         "indirect_variance must hold numbers, got complex128"),
        ({"max_risk": [False, "1", 0.0]}, ConfigurationError,
         "max_risk must hold numbers, got <U32"),
        ({"max_risk": [False, True, False]}, ConfigurationError,
         "max_risk must hold numbers, got bool"),
        # a bool in a list of numbers, which numpy would cast to the numbers' dtype
        ({"src": [True, 2], "dst": [2, 3]}, ConfigurationError,
         "src must hold integer node ids, got bool"),
        ({"direct_variance": [0.01, np.True_]}, ConfigurationError,
         "direct_variance must hold numbers, got bool"),
        ({"max_risk": [0.0, False, 0.5]}, ConfigurationError,
         "max_risk must hold numbers, got bool"),
        # a network needs a node, columns of one length and an appetite per node
        ({"node_count": 0}, ConfigurationError, "node_count must be >= 1, got 0"),
        ({"dst": [2]}, ConfigurationError, "edge columns differ in length"),
        ({"max_risk": [0.0, 0.0]}, ConfigurationError, "max_risk has 2 entries, expected 3"),
    ])
    def test_column_errors_name_the_column_and_edge(self, change, error, message):
        # a value sets the second edge's entry, a list the whole column
        fields = {"src": 1, "dst": 2, "required": 0.5, "direct_mean": 0.4,
                  "direct_variance": 0.01, "indirect_mean": 0.3, "indirect_variance": 0.01,
                  **change}
        columns = [fields[name] if isinstance(fields[name], list) else [first, fields[name]]
                   for name, first in zip(("src", "dst", *netsim.EDGE_COLUMNS),
                                          (1, 3, 0.5, 0.5, 0.5, 0.5, 0.5))]
        max_risk = change.get("max_risk", 0.0)
        with pytest.raises(error) as info:
            Network(change.get("node_count", 3), *columns,
                    max_risk if isinstance(max_risk, list) else [0.0, max_risk, 0.0])
        assert str(info.value) == message

    def test_nested_list_column_is_rejected(self):
        # flattened, [[True, 0.5]] would read as required [1.0, 0.5]
        means, variances = [[0.5, 0.5]], [[0.01, 0.01]]
        with pytest.raises(ConfigurationError, match="^src must be one-dimensional, got 2 dims$"):
            Network(3, [[1, 2]], [[2, 3]], [[True, 0.5]], means, variances, means, variances,
                    [0, 0, 0])
        with pytest.raises(ConfigurationError,
                           match="^required must be one-dimensional, got 2 dims$"):
            Network(3, [1, 2], [2, 3], [[True, 0.5]], [0.5, 0.5], [0.01, 0.01], [0.5, 0.5],
                    [0.01, 0.01], [0, 0, 0])

    def test_ragged_column_is_rejected(self):
        with pytest.raises(ConfigurationError,
                           match="^dst must be one-dimensional, got a nested sequence$"):
            Network(3, [1, 2], [[2], 3], [0.5, 0.5], [0.5, 0.5], [0.01, 0.01], [0.5, 0.5],
                    [0.01, 0.01], [0, 0, 0])
        with pytest.raises(ConfigurationError, match="^max_risk must be one-dimensional"):
            Network(3, [1, 2], [2, 3], [0.5, 0.5], [0.5, 0.5], [0.01, 0.01], [0.5, 0.5],
                    [0.01, 0.01], [0, [0, 1], 0])

    def test_numpy_node_count_is_accepted(self):
        network = self.network()
        assert Network(np.int64(5), *self.columns(network), network.max_risk) == network

    @pytest.mark.parametrize("kind", [np.int8, np.int16, np.uint8, np.uint64, np.int64])
    def test_numpy_node_count_is_stored_as_an_int(self, tmp_path, kind):
        # in numpy arithmetic, int8(100) overflowed the writers' cell offsets, uint64(100)
        # could not scale the signed cell column, and uint8(100) miscounted the pairs
        def network(n):
            return Network(n, [1, 99, 100], [100, 100, 1], [0.9, 0.5, 0.2], [0.3, 0.6, 0.1],
                           [0.01] * 3, [0.4, 0.2, 0.3], [0.01] * 3, [0.0] * 100)

        def tables(network, name):
            result = run_assessment(network)
            write_matrices(tmp_path / f"{name}.csv", result)
            write_risk_table(tmp_path / f"{name}-risk.csv", result)
            return [(tmp_path / f"{name}{suffix}.csv").read_bytes() for suffix in ("", "-risk")]

        given, plain = network(kind(100)), network(100)
        assert given == plain and type(given.node_count) is int
        assert tables(given, "given") == tables(plain, "plain")
        config = ScenarioConfig(seed=kind(7), node_count=kind(100), edge_probability=0.1)
        assert type(config.seed) is int and type(config.node_count) is int
        assert generate_network(config) == generate_network(
            ScenarioConfig(seed=7, node_count=100, edge_probability=0.1))

    def test_edges_view(self):
        network = self.network()
        edges = network.edges
        assert isinstance(edges, Mapping)
        assert list(edges) == sorted(edges) == list(zip(network.src.tolist(),
                                                        network.dst.tolist()))
        assert len(edges) == len(network.src)
        i, j = next(iter(edges))
        k = 0
        assert edges[(i, j)] == Edge(
            float(network.required[k]),
            TrustEstimate(float(network.direct_mean[k]), float(network.direct_variance[k])),
            TrustEstimate(float(network.indirect_mean[k]), float(network.indirect_variance[k])),
        )
        absent = next((a, b) for a in range(1, 6) for b in range(1, 6)
                      if a != b and (a, b) not in edges)
        for key in (absent, (1, 1), (0, 2), (2, 6), (1,), "12", None):
            assert key not in edges
            with pytest.raises(KeyError):
                edges[key]
        with pytest.raises(TypeError):
            edges[(i, j)] = edges[(i, j)]

    def test_a_network_holds_only_its_given_columns(self, tmp_path):
        given = {"node_count", "src", "dst", *netsim.EDGE_COLUMNS, "max_risk"}
        network = self.network()
        reversed_columns = [column[::-1] for column in self.columns(network)]
        save_network(network, tmp_path / "network.json")
        for each in (network, Network(5, *reversed_columns, network.max_risk),
                     load_network(tmp_path / "network.json"), load_bundled_three_node()):
            assert set(vars(each)) == given

    @pytest.mark.parametrize("n, probability, seed", [
        (1, 1.0, 0), (2, 1.0, 1), (2, 0.5, 2), (3, 0.5, 3), (12, 0.3, 4), (30, 0.6, 5),
        (40, 1.0, 6)])
    def test_edges_agree_with_a_dict_for_every_key(self, n, probability, seed):
        # a seeded edge set whose first, middle and last rows are empty (for n >= 3),
        # handed over in a shuffled order
        rng = np.random.default_rng(seed)
        empty = {1, (n + 1) // 2, n} if n >= 3 else set()
        expected = {}
        for i, j in itertools.permutations(range(1, n + 1), 2):
            if i not in empty and rng.random() < probability:
                required, direct, indirect = rng.random(3).tolist()
                direct_var, indirect_var = (0.1 * (1.0 - rng.random(2))).tolist()
                expected[(i, j)] = Edge(required, TrustEstimate(direct, direct_var),
                                        TrustEstimate(indirect, indirect_var))
        keys = list(expected)
        shuffled = {keys[k]: expected[keys[k]] for k in rng.permutation(len(keys))}
        edges = network_from_edges(n, shuffled).edges
        assert list(edges) == sorted(expected)
        for key in itertools.product(range(n + 2), repeat=2):
            if key in expected:
                assert edges[key] == expected[key]
            else:
                with pytest.raises(KeyError):
                    edges[key]

    @pytest.mark.parametrize("kind", [np.int8, np.uint8, np.int16, np.uint64, np.int64])
    def test_edges_take_numpy_integer_node_ids(self, kind):
        # row 127 ends where row 128 starts: np.int8(127) + 1 would wrap to -128
        edge = Edge(0.5, TrustEstimate(0.4), TrustEstimate(0.6))
        edges = network_from_edges(130, {(127, 3): edge, (128, 1): edge}).edges
        assert edges[(kind(127), kind(3))] == edge
        assert (kind(127), kind(1)) not in edges and (kind(3), kind(127)) not in edges

    def test_appetite_for_unknown_node(self):
        network = self.network()
        # numpy would index node 1 for a bool, and fail on a float or a str
        for node in (0, 6, -1, 1.5, 2.0, "1", None, True, False, np.True_):
            with pytest.raises(KeyError) as info:
                network.appetite_for(node)
            assert info.value.args == (node,)
        assert network.appetite_for(np.int64(2)) == network.appetite_for(2)


class TestFixtureAssessment:
    def test_fixture_values(self):
        network = load_bundled_three_node()
        assert len(network.edges) == 6
        assert network.edges[(1, 2)].required == 0.4546
        assert network.edges[(1, 2)].direct.mean == 0.5133
        assert network.edges[(1, 2)].indirect.mean == 0.7578
        assert network.edges[(3, 2)].indirect.mean == 0.0777

    # each key equals an edge's (i, j) under ==, but names no integer node
    @pytest.mark.parametrize("key", [(True, 2), (1.0, 2), (1, 2.0), (np.True_, 3),
                                     (np.float64(1.0), 3)],
                             ids=["bool", "float-src", "float-dst", "numpy-bool", "numpy-float"])
    def test_edges_reject_non_integer_node_ids(self, key):
        edges = load_bundled_three_node().edges
        assert key not in edges
        with pytest.raises(KeyError) as info:
            edges[key]
        assert info.value.args == (key,)
        assert edges[(np.int64(1), np.int64(2))] == edges[(1, 2)]

    def test_reference_decisions(self):
        result = run_assessment(load_bundled_three_node())
        assert result.decisions[(1, 2)] is Decision.ACCEPT_DIRECT
        assert result.decisions[(3, 2)] is Decision.ACCEPT_DIRECT
        assert result.decisions[(2, 1)] is Decision.ACCEPT_INDIRECT
        assert result.decisions[(2, 3)] is Decision.ACCEPT_INDIRECT
        assert result.decisions[(1, 3)].reached_combined
        assert result.decisions[(3, 1)].reached_combined

    def test_combined_and_risk_cells(self):
        result = run_assessment(load_bundled_three_node())
        assert result.c_matrix[0, 2] == pytest.approx(COMBINED_13, rel=1e-12)
        assert result.c_matrix[2, 0] == pytest.approx(COMBINED_31, rel=1e-12)
        assert result.r_matrix[0, 2] == pytest.approx(RISK_13, rel=1e-12)
        assert result.r_matrix[2, 0] == pytest.approx(RISK_31, rel=1e-12)

    def test_zero_pattern_matches_reference_table(self):
        result = run_assessment(load_bundled_three_node())
        c_nonzero = {(i + 1, j + 1) for i, j in zip(*np.nonzero(result.c_matrix)) if i != j}
        r_nonzero = {(i + 1, j + 1) for i, j in zip(*np.nonzero(result.r_matrix))}
        assert c_nonzero == {(1, 3), (3, 1)}
        assert r_nonzero == {(1, 3), (3, 1)}

    def test_matrix_conventions(self):
        result = run_assessment(load_bundled_three_node())
        matrices = result.as_matrix_dict()
        assert np.array_equal(np.diag(matrices["T"]), np.zeros(3))
        assert np.array_equal(np.diag(result.r_matrix), np.zeros(3))
        for matrix in (matrices["A"], matrices["B"], result.c_matrix):
            assert np.array_equal(np.diag(matrix), np.ones(3))

    def test_average_combiner(self):
        result = run_assessment(load_bundled_three_node(), COMBINERS["average"])
        assert result.c_matrix[0, 2] == pytest.approx((0.6844 + 0.0445) / 2, abs=1e-15)
        assert result.c_matrix[2, 0] == pytest.approx((0.4685 + 0.4558) / 2, abs=1e-15)
        beta_result = run_assessment(load_bundled_three_node())
        assert np.array_equal(
            result.c_matrix != 0.0, beta_result.c_matrix != 0.0
        )
        assert np.array_equal(
            result.r_matrix != 0.0, beta_result.r_matrix != 0.0
        )


class TestRunAssessment:
    def test_absent_edges_are_zero_everywhere(self):
        network = network_from_edges(
            3, {(1, 2): Edge(0.2, TrustEstimate(0.6), TrustEstimate(0.5))}
        )
        result = run_assessment(network)
        for matrix in result.as_matrix_dict().values():
            assert matrix[1, 0] == 0.0
            assert matrix[1, 2] == 0.0
            assert matrix[2, 0] == 0.0

    def test_no_edges_gives_identity_like_matrices(self):
        result = run_assessment(network_from_edges(4, {}))
        assert np.array_equal(result.as_matrix_dict()["T"], np.zeros((4, 4)))
        assert np.array_equal(result.r_matrix, np.zeros((4, 4)))
        assert np.array_equal(result.as_matrix_dict()["A"], np.eye(4))
        assert result.decisions == {}

    def test_degenerate_edge_poisons_only_itself(self):
        # mean 0.998 cannot carry variance 0.01; fused only because T is high
        edges = {
            (1, 2): Edge(0.999, TrustEstimate(0.998), TrustEstimate(0.12)),
            (2, 1): Edge(0.3, TrustEstimate(0.7), TrustEstimate(0.2)),
        }
        result = run_assessment(network_from_edges(2, edges))
        assert len(result.errors) == 1
        error = result.errors[0]
        assert (error.from_node, error.to_node) == (1, 2)
        assert error.kind == "InvalidVarianceError"
        assert (1, 2) not in result.decisions
        assert result.c_matrix[0, 1] == 0.0
        assert result.r_matrix[0, 1] == 0.0
        # the healthy edge still went through
        assert result.decisions[(2, 1)] is Decision.ACCEPT_DIRECT
        assert result.as_matrix_dict()["A"][0, 1] == 0.998  # inputs stay reported

    def test_near_degenerate_edge_is_assessed(self):
        # aA + aB - 1 is 2**-52: the posterior mean is about 7e-16
        edge = Edge(
            0.9,
            TrustEstimate(0.4324296867870303, 0.07820908251563337),
            TrustEstimate(0.44687694450688287, 0.2114986240697817),
        )
        result = run_assessment(network_from_edges(2, {(1, 2): edge}))
        assert result.errors == []
        assert result.decisions[(1, 2)] is Decision.DECLINE
        assert 0.0 < result.c_matrix[0, 1] < 1.0

    def test_overflowing_variance_is_an_edge_error(self):
        edges = {
            (1, 2): Edge(0.9, TrustEstimate(0.5, 1e-320), TrustEstimate(0.3)),
            (2, 1): Edge(0.3, TrustEstimate(0.7), TrustEstimate(0.2)),
        }
        result = run_assessment(network_from_edges(2, edges))
        assert [(e.from_node, e.to_node, e.kind) for e in result.errors] == [
            (1, 2, "InvalidVarianceError")
        ]
        assert result.decisions == {(2, 1): Decision.ACCEPT_DIRECT}

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.1, 1.5])
    def test_combiner_value_outside_unit_interval_is_an_edge_error(self, value):
        edges = {
            (1, 2): Edge(0.9, TrustEstimate(0.5), TrustEstimate(0.3)),
            (2, 1): Edge(0.3, TrustEstimate(0.7), TrustEstimate(0.2)),
        }
        result = run_assessment(network_from_edges(2, edges),
                                combiner=lambda direct, indirect: value)
        assert [(e.from_node, e.to_node, e.kind) for e in result.errors] == [(1, 2, "RangeError")]
        assert result.decisions == {(2, 1): Decision.ACCEPT_DIRECT}
        assert result.c_matrix[0, 1] == 0.0 and result.r_matrix[0, 1] == 0.0

    def test_matrices_are_built_once_from_the_columns(self):
        network = load_bundled_three_node()
        result = run_assessment(network)
        assert result.c_matrix is result.c_matrix and result.r_matrix is result.r_matrix
        assert result.as_matrix_dict()["C"] is result.c_matrix
        cells = (network.src - 1, network.dst - 1)
        assert result.c_matrix[cells].tolist() == result.combined.tolist()
        assert result.r_matrix[cells].tolist() == result.risk.tolist()
        assert np.diag(result.c_matrix).tolist() == [1.0] * 3
        short_circuited = result.outcome < DECISIONS.index(Decision.ACCEPT_COMBINED)
        assert result.combined[short_circuited].tolist() == [0.0] * 4

    def test_result_columns_and_matrices_are_read_only(self):
        result = run_assessment(load_bundled_three_node())
        matrices = result.as_matrix_dict()
        for array in (result.combined, result.risk, result.outcome, result.c_matrix,
                      result.c_matrix.base, result.r_matrix, matrices["T"]):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        assert result.decisions[(1, 3)] is Decision.DECLINE
        assert result.c_matrix[0, 2] == pytest.approx(COMBINED_13, rel=1e-12)

    def test_appetite_of_evaluating_node_applies(self):
        edges = {(1, 2): Edge(0.7148, TrustEstimate(0.6844), TrustEstimate(0.0445))}
        lenient = network_from_edges(2, edges, [1.0, 0.0])
        strict = network_from_edges(2, edges, [0.0, 1.0])
        assert run_assessment(lenient).decisions[(1, 2)] is Decision.ACCEPT_WITH_RISK
        assert run_assessment(strict).decisions[(1, 2)] is Decision.DECLINE

    def test_deterministic_across_runs(self):
        network = generate_network(ScenarioConfig(seed=11, node_count=9, edge_probability=0.5))
        first = run_assessment(network)
        second = run_assessment(network)
        for name, matrix in first.as_matrix_dict().items():
            assert matrix.tobytes() == second.as_matrix_dict()[name].tobytes()
        assert first.decisions == second.decisions

    @pytest.mark.parametrize("seed", [2, 5, 8, 23])
    def test_matches_straight_line_oracle(self, seed):
        # pinned seeds draw no degenerate edges and cover the with-risk
        # and decline branches; errors here would mean the documented
        # draw order changed
        config = ScenarioConfig(
            seed=seed, node_count=4, edge_probability=0.9, max_acceptable_risk=0.15
        )
        network = generate_network(config)
        result = run_assessment(network)
        assert result.errors == []
        t, a, b, c, r, decisions = oracle_assessment(network)
        matrices = result.as_matrix_dict()
        assert np.allclose(matrices["T"], t, atol=1e-12, rtol=0.0)
        assert np.allclose(matrices["A"], a, atol=1e-12, rtol=0.0)
        assert np.allclose(matrices["B"], b, atol=1e-12, rtol=0.0)
        assert np.allclose(result.c_matrix, c, atol=1e-12, rtol=0.0)
        assert np.allclose(result.r_matrix, r, atol=1e-12, rtol=0.0)
        assert result.decisions == decisions

    def test_oracle_agrees_on_fixture(self):
        network = load_bundled_three_node()
        result = run_assessment(network)
        t, a, b, c, r, decisions = oracle_assessment(network)
        assert np.allclose(result.c_matrix, c, atol=1e-12, rtol=0.0)
        assert np.allclose(result.r_matrix, r, atol=1e-12, rtol=0.0)
        assert result.decisions == decisions


unit = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def small_networks(draw):
    """Valid networks of 2 to 4 nodes with arbitrary edges and appetites."""
    n = draw(st.integers(min_value=2, max_value=4))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    edges = {
        pair: Edge(draw(unit), TrustEstimate(draw(unit)), TrustEstimate(draw(unit)))
        for pair in draw(st.lists(st.sampled_from(pairs), unique=True))
    }
    max_risk = [draw(unit) for _ in range(n)]
    return network_from_edges(n, edges, max_risk)


@given(small_networks(), st.lists(st.floats(), min_size=1))
def test_run_assessment_is_total(network, values):
    """Any float from the combiner, NaN and infinities included, ends one edge."""
    outputs = itertools.cycle(values)
    result = run_assessment(network, combiner=lambda direct, indirect: next(outputs))
    failed = [(error.from_node, error.to_node) for error in result.errors]
    assert len(failed) == len(set(failed))
    assert set(failed).isdisjoint(result.decisions)
    assert set(failed) | set(result.decisions) == set(network.edges)


@pytest.mark.parametrize("error", [TrustError("bad value", 5), RangeError("x", 1.5),
                                   TrustError(1, 2), TrustError("50%", "x")], ids=repr)
def test_a_combiner_error_of_any_args_ends_its_edge(error):
    network = generate_network(fifteen_node_config())
    fused = run_assessment(network)
    reached = {(e.from_node, e.to_node) for e in fused.errors} | {
        edge for edge, decision in fused.decisions.items() if decision.reached_combined}

    def raising(direct, indirect):
        raise error

    result = run_assessment(network, raising)
    assert reached and {(e.from_node, e.to_node) for e in result.errors} == reached
    assert {(e.kind, e.message) for e in result.errors} == {
        (type(error).__name__, Exception.__str__(error))}
    assert set(result.decisions) == set(network.edges) - reached


def custom_combiner(direct, indirect):
    """A scalar combiner without a column form; it leaves [0, 1] at both ends."""
    return 1.5 * combined_trust(direct, indirect) - 0.25


# Means at the clamp and the ends of [0, 1], and variances at the two bounds
# m(1 - m) and m(1 - m) * 2**-1022 of the clamped mean, one ulp either side.
CLAMP = MEAN_EPSILON
boundary_means = st.one_of(
    st.sampled_from([0.0, 1.0, CLAMP, math.nextafter(CLAMP, 0.0), math.nextafter(CLAMP, 1.0),
                     1.0 - CLAMP, 0.5]),
    st.floats(min_value=0.0, max_value=1.0),
)


@st.composite
def boundary_estimates(draw, mean):
    m = min(max(mean, CLAMP), 1.0 - CLAMP)
    bound = m * (1.0 - m)
    floor = bound * 2.0**-1022
    variance = draw(st.one_of(
        st.sampled_from([bound, math.nextafter(bound, 0.0), math.nextafter(bound, 1.0),
                         floor, math.nextafter(floor, 0.0), math.nextafter(floor, 1.0),
                         0.01]),
        st.floats(min_value=1e-12, max_value=0.3),
    ))
    return TrustEstimate(mean, variance)


@st.composite
def boundary_edges(draw):
    # high requirements and low means, so that many edges reach C; ties
    # T == A and T == B decide the short circuit
    required = draw(st.one_of(boundary_means, st.floats(min_value=0.5, max_value=1.0)))
    means = st.one_of(st.just(required), boundary_means, st.floats(min_value=0.0, max_value=0.6))
    direct_mean, indirect_mean = draw(means), draw(means)
    return Edge(required, draw(boundary_estimates(direct_mean)),
                draw(boundary_estimates(indirect_mean)))


@st.composite
def boundary_networks(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    edges = {pair: draw(boundary_edges())
             for pair in draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1))}
    max_risk = [draw(st.one_of(st.sampled_from([0.0, 1.0]), unit)) for _ in range(n)]
    return network_from_edges(n, edges, max_risk)


def per_edge_outcomes(network, combiner):
    """{(i, j): (decision or (error kind, message), C, R)} from evaluate_request alone."""
    outcomes = {}
    for (i, j), edge in sorted(network.edges.items()):
        try:
            record = evaluate_request(edge.required, edge.direct, edge.indirect,
                                      network.appetite_for(i), combiner)
        except TrustError as exc:
            outcomes[(i, j)] = ((type(exc).__name__, str(exc)), 0.0, 0.0)
        else:
            combined = 0.0 if record.combined is None else float(record.combined)
            outcomes[(i, j)] = (record.decision, combined, float(record.risk))
    return outcomes


def with_risk_at_appetite(network, combiner):
    """The network with each node's appetite set to the risk of its first risky edge."""
    appetites = {}
    for (i, _), (outcome, _, risk) in per_edge_outcomes(network, combiner).items():
        if isinstance(outcome, Decision) and risk > 0.0:
            appetites.setdefault(i, risk)
    max_risk = [appetites.get(node, risk) for node, risk in enumerate(network.max_risk, 1)]
    return network_from_edges(network.node_count, dict(network.edges), max_risk)


@pytest.mark.parametrize("combiner", [combined_trust, average_combiner, custom_combiner])
@settings(max_examples=150, deadline=None)
@given(network=boundary_networks(), tie=st.booleans())
def test_columns_match_per_edge_evaluation(combiner, network, tie):
    """Outcomes, messages, and bit-identical C and R, against evaluate_request per edge."""
    if tie:
        network = with_risk_at_appetite(network, combiner)
    expected = per_edge_outcomes(network, combiner)
    result = run_assessment(network, combiner)
    errors = {(e.from_node, e.to_node): (e.kind, e.message) for e in result.errors}
    assert [key for key, (o, _, _) in expected.items() if not isinstance(o, Decision)] == [
        (e.from_node, e.to_node) for e in result.errors]
    for (i, j), (outcome, combined, risk) in expected.items():
        assert result.decisions.get((i, j), errors.get((i, j))) == outcome
        assert float(result.c_matrix[i - 1, j - 1]).hex() == combined.hex()
        assert float(result.r_matrix[i - 1, j - 1]).hex() == risk.hex()
    assert sum(result.decision_tally().values()) == len(result.decisions)


def wrapped_combined_trust(direct, indirect):
    """combined_trust behind a plain scalar call, as a tracing wrapper hands it over."""
    return combined_trust(direct, indirect)


@pytest.mark.parametrize("combiner", [combined_trust, average_combiner, custom_combiner,
                                      wrapped_combined_trust])
@pytest.mark.parametrize("chunk", [1, 2, 3, 17, netsim.CHUNK])
def test_blocks_decide_every_edge_as_evaluate_request(monkeypatch, combiner, chunk):
    """Outcomes, C, R and the ordered errors do not depend on how many edges a block holds."""
    monkeypatch.setattr(netsim, "CHUNK", chunk)
    # the wide direct variance fails the moment inversion of means near 0 and 1
    network = generate_network(ScenarioConfig(
        seed=2, node_count=12, edge_probability=0.8, variance_direct=0.09,
        variance_indirect=0.05, max_acceptable_risk=0.1))
    expected = per_edge_outcomes(network, combiner)
    result = run_assessment(network, combiner)
    outcomes = [outcome for outcome, _, _ in expected.values()]
    assert result.outcome.tolist() == [
        DECISIONS.index(o) if isinstance(o, Decision) else FAILED for o in outcomes]
    assert result.combined.tolist() == [combined for _, combined, _ in expected.values()]
    assert result.risk.tolist() == [risk for _, _, risk in expected.values()]
    assert [(e.from_node, e.to_node, (e.kind, e.message)) for e in result.errors] == [
        (i, j, outcome) for (i, j), (outcome, _, _) in expected.items()
        if not isinstance(outcome, Decision)]
    # the network reaches every branch but, averaged, AcceptCombined, and every combiner
    # but the average fails on some edge
    assert len({o for o in outcomes if isinstance(o, Decision)}) >= 4
    assert bool(result.errors) is (combiner is not average_combiner)


class TestRiskSeries:
    def test_zero_at_non_edges(self):
        network = generate_network(fifteen_node_config())
        result = run_assessment(network)
        for node in range(1, 16):
            for peer in range(1, 16):
                risk = result.r_matrix[node - 1, peer - 1]
                if (node, peer) not in network.edges:
                    assert risk == 0.0
                if risk > 0.0:
                    assert (node, peer) in network.edges


class TestFifteenNodeScenario:
    def test_committed_config(self):
        config = fifteen_node_config()
        assert config.node_count == 15
        assert config.edge_probability == 0.3
        network = generate_network(config)
        result = run_assessment(network)
        assert result.errors == []
        assert len(result.decisions) == len(network.edges) == 61

    def test_entries_within_unit_interval(self):
        result = run_assessment(generate_network(fifteen_node_config()))
        for matrix in (result.c_matrix, result.r_matrix):
            assert matrix.min() >= 0.0
            assert matrix.max() <= 1.0
