"""Directed trust networks: seeded generation and batch assessment.

Node ids run from 1 to node_count.  Trust is asymmetric, so the edges
(i, j) and (j, i) are independent, and there are no self-edges: a node
blindly trusts itself, which shows up only as the diagonal of the result
matrices (1 for A, B, C and 0 for T, R) and never enters a calculation.

A Network is a columnar edge table: one numpy array per edge field, in
row-major (i, j) order, plus one appetite per node.  Its one constructor
takes and checks those columns; generate_network and the document loader
fill them, and an Edge is only read back from them.  Edges are evaluated
independently, so run_assessment decides all of them with array
expressions; the scalar combiner gives C or names the error only on the
edges that its column form leaves without a C (on all that reach C, for
a combiner that has none).  The result keeps only C, R and the outcomes;
T, A and B stay in the network.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np

from .decision import (
    COLUMN_COMBINERS,
    DECISIONS,
    FAILED,
    Combiner,
    Decision,
    RiskAppetite,
    combined_trust,
    fused_code,
)
from .errors import ConfigurationError, InvalidVarianceError, RangeError, TrustError
from .fusion import DEFAULT_VARIANCE, TrustEstimate, _check_unit_interval, _check_variance

# Committed seed of the fifteen-node reference experiment.  Chosen once
# so that the scenario reproduces bit-identically on every platform; at
# edge probability 0.3 it yields 61 edges and no degenerate estimates.
FIFTEEN_NODE_SEED = 196

# The per-edge float columns of a Network, in Edge field order.
EDGE_COLUMNS = ("required", "direct_mean", "direct_variance", "indirect_mean", "indirect_variance")

# Uniforms taken from the generator at a time by generate_network.
DRAW_CHUNK = 1 << 16


def _check_integer(name: str, value) -> None:
    # numpy would read True as 1, and reject 1.5 only when generating
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True, slots=True)
class Edge:
    """Trust data of one directed edge, read back from a Network's columns."""

    required: float
    direct: TrustEstimate
    indirect: TrustEstimate


class EdgeView(Mapping):
    """Read-only {(i, j): Edge} view of a Network; an Edge is made on access."""

    def __init__(self, network: Network):
        self._network = network

    def __len__(self) -> int:
        return len(self._network.src)

    def __iter__(self):
        return zip(self._network.src.tolist(), self._network.dst.tolist())

    def __getitem__(self, key) -> Edge:
        network, n = self._network, self._network.node_count
        try:
            i, j = key
            if not (1 <= i <= n and 1 <= j <= n):
                raise KeyError(key)
            cell = (i - 1) * n + (j - 1)
        except (TypeError, ValueError):
            raise KeyError(key) from None
        index = int(np.searchsorted(network.cell, cell))
        if index == len(network.cell) or network.cell[index] != cell:
            raise KeyError(key)
        required, direct_mean, direct_var, indirect_mean, indirect_var = (
            float(getattr(network, name)[index]) for name in EDGE_COLUMNS)
        return Edge(required, TrustEstimate(direct_mean, direct_var),
                    TrustEstimate(indirect_mean, indirect_var))


class Network:
    """Directed graph of nodes with per-edge trust data and per-node appetite.

    The edges are held as read-only columns, one entry per edge in
    row-major (src, dst) order: src and dst (integer node ids), the float
    columns named in EDGE_COLUMNS, and cell, the flat index (src - 1) *
    node_count + dst - 1 of the edge's cell in an n x n matrix.  max_risk
    holds the appetite of node i at index i - 1.

    The constructor takes the columns in any edge order and stores
    copies, so the caller's arrays stay writable.  A float value must lie
    in [0, 1] (RangeError), a variance be positive (InvalidVarianceError);
    the error names the column and the first edge or node breaking it.
    edges reads the columns back as a mapping.
    """

    def __init__(
        self,
        node_count: int,
        src: np.ndarray,
        dst: np.ndarray,
        required: np.ndarray,
        direct_mean: np.ndarray,
        direct_variance: np.ndarray,
        indirect_mean: np.ndarray,
        indirect_variance: np.ndarray,
        max_risk: np.ndarray,
    ) -> None:
        n = node_count
        _check_integer("node_count", n)
        if n < 1:
            raise ConfigurationError(f"node_count must be >= 1, got {n}")
        columns = [np.asarray(column) for column in (
            src, dst, required, direct_mean, direct_variance, indirect_mean, indirect_variance,
            max_risk)]
        for name, column in zip(("src", "dst", *EDGE_COLUMNS, "max_risk"), columns):
            # the casts below would read 1.9 and True as node 1, and True or '0.5' as a number
            ends = name in ("src", "dst")
            kinds, what = ("iu", "integer node ids") if ends else ("iuf", "numbers")
            if column.size and column.dtype.kind not in kinds:
                raise ConfigurationError(f"{name} must hold {what}, got {column.dtype}")
        # copies, so that freezing them below leaves the caller's arrays alone
        src, dst = (np.array(end, dtype=np.int64).reshape(-1) for end in columns[:2])
        *columns, max_risk = (np.array(column, dtype=float).reshape(-1) for column in columns[2:])
        if any(len(column) != len(src) for column in (dst, *columns)):
            raise ConfigurationError("edge columns differ in length")
        bad = (src == dst) | (src < 1) | (src > n) | (dst < 1) | (dst > n)
        if bad.any():
            i, j = (int(end[bad.argmax()]) for end in (src, dst))
            if i == j:
                raise ConfigurationError(f"self-edge ({i}, {j}) is not allowed")
            raise ConfigurationError(f"edge ({i}, {j}) endpoint out of range 1..{n}")
        if len(max_risk) != n:
            raise ConfigurationError(f"max_risk has {len(max_risk)} entries, expected {n}")
        for name, column in zip((*EDGE_COLUMNS, "max_risk"), (*columns, max_risk)):
            if name.endswith("variance"):
                error, rule, ok = InvalidVarianceError, "be positive", column > 0.0
            else:
                error, rule, ok = RangeError, "lie in [0, 1]", (column >= 0.0) & (column <= 1.0)
            if not ok.all():  # NaN breaks either rule
                k = int(ok.argmin())
                where = f"node {k + 1}" if name == "max_risk" else f"edge ({src[k]}, {dst[k]})"
                raise error(f"{where}: {name} must {rule}, got {float(column[k])!r}")
        cell = (src - 1) * n + (dst - 1)
        if np.any(cell[1:] <= cell[:-1]):
            order = np.argsort(cell, kind="stable")
            cell, src, dst = cell[order], src[order], dst[order]
            columns = [column[order] for column in columns]
            same = np.flatnonzero(cell[1:] == cell[:-1])
            if same.size:
                raise ConfigurationError(
                    f"duplicate edge ({src[same[0]]}, {dst[same[0]]})"
                )
        for array in (cell, src, dst, max_risk, *columns):
            array.flags.writeable = False
        self.node_count = n
        self.src, self.dst, self.cell, self.max_risk = src, dst, cell, max_risk
        (self.required, self.direct_mean, self.direct_variance,
         self.indirect_mean, self.indirect_variance) = columns

    @property
    def edges(self) -> EdgeView:
        return EdgeView(self)

    def appetite_for(self, node: int) -> RiskAppetite:
        """The appetite of node 1..node_count; KeyError for anything else, a bool included."""
        integer = type(node) is int or isinstance(node, Integral) and not isinstance(node, bool)
        if not (integer and 1 <= node <= self.node_count):
            raise KeyError(node)
        return RiskAppetite(float(self.max_risk[node - 1]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        return self.node_count == other.node_count and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("src", "dst", "max_risk", *EDGE_COLUMNS)
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"Network(node_count={self.node_count}, edges={len(self.src)})"


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    """Deterministic recipe for a random network.

    Identical configs yield identical networks; the seed and the draw
    order documented in generate_network pin the entire experiment.  The
    float fields follow TrustEstimate's value rules and errors.
    """

    seed: int
    node_count: int
    edge_probability: float
    variance_direct: float = DEFAULT_VARIANCE
    variance_indirect: float = DEFAULT_VARIANCE
    max_acceptable_risk: float = 0.0

    def __post_init__(self) -> None:
        for name in ("seed", "node_count"):
            _check_integer(name, getattr(self, name))
        if not 0 <= self.seed < 2**64:
            raise ConfigurationError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if self.node_count < 2:
            raise ConfigurationError(f"node_count must be >= 2, got {self.node_count}")
        _check_unit_interval("edge_probability", self.edge_probability)
        _check_variance("variance_direct", self.variance_direct)
        _check_variance("variance_indirect", self.variance_indirect)
        _check_unit_interval("max_acceptable_risk", self.max_acceptable_risk)


@dataclass(frozen=True, slots=True)
class EdgeError:
    """A failure on one edge, reported without aborting the batch.

    kind is the name of the TrustError subclass the edge raised, for
    example InvalidVarianceError, or RangeError for a combined value
    outside [0, 1].
    """

    from_node: int
    to_node: int
    kind: str
    message: str


def _matrix(n: int, diagonal: float, cell: np.ndarray, values: np.ndarray) -> np.ndarray:
    """An n x n matrix: diagonal on its diagonal, values at the flat cells, 0 elsewhere."""
    matrix = np.zeros((n, n))
    np.fill_diagonal(matrix, diagonal)
    matrix.flat[cell] = values
    return matrix


@dataclass(eq=False)
class AssessmentResult:
    """What one assessment run computed: C, R and the outcome of every edge.

    Matrix cell [i-1, j-1] belongs to the edge from node i to node j.
    The C diagonal is 1 and the R diagonal 0; an absent edge, and an edge
    whose C was never computed (short-circuited or errored), is 0 in
    both.  as_matrix_dict adds the T, A and B matrices of network.

    outcome holds, per edge of network in column order, the index of its
    decision in DECISIONS, or FAILED for an edge in errors.
    """

    network: Network
    c_matrix: np.ndarray
    r_matrix: np.ndarray
    outcome: np.ndarray
    errors: list[EdgeError]

    @cached_property
    def decisions(self) -> dict[tuple[int, int], Decision]:
        """The decision of every edge not in errors, keyed by (i, j)."""
        decided = np.flatnonzero(self.outcome != FAILED)
        return dict(zip(
            zip(self.network.src[decided].tolist(), self.network.dst[decided].tolist()),
            map(DECISIONS.__getitem__, self.outcome[decided].tolist()),
        ))

    def as_matrix_dict(self) -> dict[str, np.ndarray]:
        """The matrices keyed by section name; T, A and B are built from network on each call."""
        network = self.network
        n, cell = network.node_count, network.cell
        return {
            "T": _matrix(n, 0.0, cell, network.required),
            "A": _matrix(n, 1.0, cell, network.direct_mean),
            "B": _matrix(n, 1.0, cell, network.indirect_mean),
            "C": self.c_matrix,
            "R": self.r_matrix,
        }

    def decision_tally(self) -> dict[str, int]:
        """Count of edges per decision name, every outcome listed."""
        counts = np.bincount(self.outcome[self.outcome != FAILED], minlength=len(DECISIONS))
        return {decision.value: int(count) for decision, count in zip(DECISIONS, counts)}


def _edge_starts(draws: np.ndarray, probability: float) -> np.ndarray:
    """Positions of the edge records in a run of draws that begins a record.

    A record is one draw u, plus three more when u < probability.
    """
    starts = []
    free = 0  # first draw not taken by the last edge record
    for position in np.flatnonzero(draws < probability).tolist():
        if position >= free:
            starts.append(position)
            free = position + 4
    return np.array(starts, dtype=np.int64)


def generate_network(config: ScenarioConfig) -> Network:
    """Draw a random network from the seeded generator.

    The generator is PCG64 seeded with config.seed.  Draws are consumed
    in row-major order over ordered pairs (i, j), i != j: one uniform
    for edge existence, then, only for pairs that got an edge, one
    uniform each for the required trust, the direct mean and the
    indirect mean.

    The uniforms are taken at most DRAW_CHUNK at a time, and each chunk
    starts on an edge record.  rng.random(k) followed by rng.random(m)
    gives the same values as rng.random(k + m), so a chunk whose last
    record runs past its end draws the missing values at once, and the
    chunks consume the uniforms in exactly the order above.
    """
    n = config.node_count
    pairs = n * (n - 1)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    found: list[tuple[np.ndarray, np.ndarray]] = []  # (pair index, three values) per chunk
    done = 0  # pairs whose draws are taken
    while done < pairs:
        draws = rng.random(min(DRAW_CHUNK, pairs - done))
        starts = _edge_starts(draws, config.edge_probability)
        if len(starts) and starts[-1] + 4 > len(draws):
            draws = np.concatenate((draws, rng.random(starts[-1] + 4 - len(draws))))
        # pair index of each edge in the chunk: every earlier pair took one
        # draw, every earlier edge three more
        found.append((done + starts - 3 * np.arange(len(starts)),
                      draws[starts[:, None] + np.arange(1, 4)]))
        done += len(draws) - 3 * len(starts)
    pair = np.concatenate([pair for pair, _ in found])
    values = np.concatenate([values for _, values in found]).reshape(-1, 3)
    src, rest = np.divmod(pair, n - 1)
    dst = rest + (rest >= src)
    return Network(
        n, src + 1, dst + 1, values[:, 0],
        values[:, 1], np.full(len(pair), config.variance_direct, float),
        values[:, 2], np.full(len(pair), config.variance_indirect, float),
        np.full(n, config.max_acceptable_risk, float),
    )


def run_assessment(network: Network, combiner: Combiner = combined_trust) -> AssessmentResult:
    """Decide every edge of the network and fill the C and R matrices.

    The evaluating node of edge (i, j) is i, so its appetite applies.
    Every edge ends in exactly one of decisions and errors, with the
    outcome the scalar decision chain gives it.  A TrustError on one edge
    (a fusion failure, or a combiner value not a real number in [0, 1])
    poisons only that edge: its C and R cells stay 0, no decision is
    recorded, and an EdgeError named after the exception class is
    appended while the remaining edges proceed.

    A combiner listed in COLUMN_COMBINERS gives C for all edges that
    reach it at once.  The scalar combiner then runs once on each of
    those edges left without a C in [0, 1] (all of them, for any other
    combiner), only to supply that C or to raise the edge's error.  One
    array pass sets R and, through fused_code, the decision of every
    edge that has a C.
    """
    required = network.required
    outcome = np.full(len(required), FAILED, dtype=np.int8)
    direct = network.direct_mean >= required
    indirect = ~direct & (network.indirect_mean >= required)
    outcome[direct] = DECISIONS.index(Decision.ACCEPT_DIRECT)
    outcome[indirect] = DECISIONS.index(Decision.ACCEPT_INDIRECT)
    fused = np.flatnonzero(~direct & ~indirect)
    columns = COLUMN_COMBINERS.get(combiner)
    value = np.full(len(fused), np.nan) if columns is None else columns(
        network.direct_mean[fused], network.direct_variance[fused],
        network.indirect_mean[fused], network.indirect_variance[fused])
    valid = (value >= 0.0) & (value <= 1.0)  # False for NaN
    errors: list[EdgeError] = []
    missing = np.flatnonzero(~valid)
    for k, i, j, direct_mean, direct_var, indirect_mean, indirect_var in zip(
        missing.tolist(), *(column[fused[missing]].tolist() for column in (
            network.src, network.dst, network.direct_mean, network.direct_variance,
            network.indirect_mean, network.indirect_variance))
    ):
        try:
            achieved = combiner(TrustEstimate(direct_mean, direct_var),
                                TrustEstimate(indirect_mean, indirect_var))
            # checked as returned: stored first, a NaN would read np.float64(nan)
            _check_unit_interval("achieved", achieved)
        except TrustError as exc:
            errors.append(EdgeError(i, j, type(exc).__name__, str(exc)))
        else:
            value[k], valid[k] = achieved, True
    decided, value = fused[valid], value[valid]
    risk = np.maximum(required[decided] - value, 0.0)
    outcome[decided] = fused_code(risk, network.max_risk[network.src[decided] - 1])
    n, cell = network.node_count, network.cell[decided]
    return AssessmentResult(network, _matrix(n, 1.0, cell, value), _matrix(n, 0.0, cell, risk),
                            outcome, errors)


def fifteen_node_config() -> ScenarioConfig:
    """The committed fifteen-node experiment configuration."""
    return ScenarioConfig(seed=FIFTEEN_NODE_SEED, node_count=15, edge_probability=0.3)

