"""Directed trust networks: seeded generation and batch assessment.

Node ids run from 1 to node_count.  Trust is asymmetric, so the edges
(i, j) and (j, i) are independent, and there are no self-edges: a node
blindly trusts itself, which shows up only as the diagonal of the result
matrices (1 for A, B, C and 0 for T, R) and never enters a calculation.

A Network is a columnar edge table: one numpy array per edge field, in
row-major (i, j) order, plus one appetite per node.  Its one constructor
takes those columns; generate_network and the document loader fill them
without making an Edge.  Edges are evaluated independently of each
other, so run_assessment decides all of them with array expressions
over those columns.  The scalar evaluate_request runs only on the edges
whose fusion fails, to name the error, and on every edge that reaches C
when the caller passes a combiner that has no column form.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .decision import (
    COLUMN_COMBINERS,
    Combiner,
    Decision,
    RiskAppetite,
    combined_trust,
    evaluate_request,
)
from .errors import ConfigurationError, TrustError
from .fusion import DEFAULT_VARIANCE, TrustEstimate, _check_unit_interval

# Committed seed of the fifteen-node reference experiment.  Chosen once
# so that the scenario reproduces bit-identically on every platform; at
# edge probability 0.3 it yields 61 edges and no degenerate estimates.
FIFTEEN_NODE_SEED = 196

# The per-edge float columns of a Network, in Edge field order.
EDGE_COLUMNS = ("required", "direct_mean", "direct_variance", "indirect_mean", "indirect_variance")

# Uniforms taken from the generator at a time by generate_network.
DRAW_CHUNK = 1 << 16


@dataclass(frozen=True)
class Edge:
    """Trust data of one directed edge: requirement and the two sources."""

    required: float
    direct: TrustEstimate
    indirect: TrustEstimate

    def __post_init__(self) -> None:
        _check_unit_interval("required", self.required)


class EdgeView(Mapping):
    """Read-only {(i, j): Edge} view of a Network; an Edge is made on access."""

    def __init__(self, network: Network):
        self._network = network

    def __len__(self) -> int:
        return len(self._network.src)

    def __iter__(self):
        return zip(self._network.src.tolist(), self._network.dst.tolist())

    def __getitem__(self, key) -> Edge:
        index = self._network._edge_index(key)
        if index is None:
            raise KeyError(key)
        required, direct_mean, direct_var, indirect_mean, indirect_var = (
            float(getattr(self._network, name)[index]) for name in EDGE_COLUMNS
        )
        return Edge(required, TrustEstimate(direct_mean, direct_var),
                    TrustEstimate(indirect_mean, indirect_var))


class Network:
    """Directed graph of nodes with per-edge trust data and per-node appetite.

    The edges are held as read-only columns, one entry per edge in
    row-major (src, dst) order: src and dst (integer node ids), the float
    columns named in EDGE_COLUMNS, and cell, the flat index (src - 1) *
    node_count + dst - 1 of the edge's cell in an n x n matrix.  max_risk
    holds the appetite of node i at index i - 1.

    The constructor takes the columns in any edge order, validates them as
    Edge and RiskAppetite validate one value, and stores copies, so the
    caller's arrays stay writable.  edges reads them back as a mapping.
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
        if n < 1:
            raise ConfigurationError(f"node_count must be >= 1, got {n}")
        src, dst = np.asarray(src), np.asarray(dst)
        for name, end in (("src", src), ("dst", dst)):
            # the integer cast below would read both 1.9 and True as node 1
            if end.size and end.dtype.kind not in "iu":
                raise ConfigurationError(f"{name} must hold integer node ids, got {end.dtype}")
        # copies, so that freezing them below leaves the caller's arrays alone
        src = np.array(src, dtype=np.int64).reshape(-1)
        dst = np.array(dst, dtype=np.int64).reshape(-1)
        columns = [np.array(column, dtype=float).reshape(-1) for column in
                   (required, direct_mean, direct_variance, indirect_mean, indirect_variance)]
        if any(len(column) != len(src) for column in (dst, *columns)):
            raise ConfigurationError("edge columns differ in length")
        bad = (src == dst) | (src < 1) | (src > n) | (dst < 1) | (dst > n)
        if bad.any():
            i, j = (int(end[bad.argmax()]) for end in (src, dst))
            if i == j:
                raise ConfigurationError(f"self-edge ({i}, {j}) is not allowed")
            raise ConfigurationError(f"edge ({i}, {j}) endpoint out of range 1..{n}")
        required, direct_mean, direct_var, indirect_mean, indirect_var = columns
        unit = [(column >= 0.0) & (column <= 1.0)
                for column in (required, direct_mean, indirect_mean)]
        bad = ~(unit[0] & unit[1] & unit[2] & (direct_var > 0.0) & (indirect_var > 0.0))
        if bad.any():
            # the scalar constructors raise the error of the first bad edge
            k = bad.argmax()
            Edge(float(required[k]), TrustEstimate(float(direct_mean[k]), float(direct_var[k])),
                 TrustEstimate(float(indirect_mean[k]), float(indirect_var[k])))
        max_risk = np.array(max_risk, dtype=float).reshape(-1)
        if len(max_risk) != n:
            raise ConfigurationError(f"max_risk has {len(max_risk)} entries, expected {n}")
        bad = ~((max_risk >= 0.0) & (max_risk <= 1.0))
        if bad.any():
            RiskAppetite(float(max_risk[bad.argmax()]))
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
        if not 1 <= node <= self.node_count:
            raise KeyError(node)
        return RiskAppetite(float(self.max_risk[node - 1]))

    def _edge_index(self, key) -> int | None:
        """Row of edge key = (i, j) in the columns, or None if it is absent."""
        try:
            i, j = key
            if not (1 <= i <= self.node_count and 1 <= j <= self.node_count):
                return None
            cell = (i - 1) * self.node_count + (j - 1)
        except (TypeError, ValueError):
            return None
        index = int(np.searchsorted(self.cell, cell))
        return index if index < len(self.cell) and self.cell[index] == cell else None

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


@dataclass(frozen=True)
class ScenarioConfig:
    """Deterministic recipe for a random network.

    Identical configs yield identical networks; the seed and the draw
    order documented in generate_network pin the entire experiment.
    """

    seed: int
    node_count: int
    edge_probability: float
    variance_direct: float = DEFAULT_VARIANCE
    variance_indirect: float = DEFAULT_VARIANCE
    max_acceptable_risk: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2**64:
            raise ConfigurationError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if self.node_count < 2:
            raise ConfigurationError(f"node_count must be >= 2, got {self.node_count}")
        if not 0.0 <= self.edge_probability <= 1.0:
            raise ConfigurationError(
                f"edge_probability must lie in [0, 1], got {self.edge_probability}"
            )
        if self.variance_direct <= 0.0 or self.variance_indirect <= 0.0:
            raise ConfigurationError("variances must be positive")
        _check_unit_interval("max_acceptable_risk", self.max_acceptable_risk)


@dataclass(frozen=True)
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


# Decisions in outcome-code order; code -1 marks an edge that failed.
DECISIONS = tuple(Decision)
FAILED = -1
_CODE = {decision: code for code, decision in enumerate(DECISIONS)}


@dataclass(eq=False)
class AssessmentResult:
    """Five matrices plus per-edge outcomes for one assessment run.

    Matrix cell [i-1, j-1] belongs to the edge from node i to node j.
    Conventions: T and R diagonals are 0, the A, B, C diagonals are 1;
    absent edges are 0 in all matrices; a combined value that was never
    computed (short-circuited or errored edge) is rendered 0.

    outcome holds, per edge of the assessed network (src, dst), the
    index of its decision in DECISIONS, or FAILED for an edge in errors.
    """

    t_matrix: np.ndarray
    a_matrix: np.ndarray
    b_matrix: np.ndarray
    c_matrix: np.ndarray
    r_matrix: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    outcome: np.ndarray
    errors: list[EdgeError]

    @cached_property
    def decisions(self) -> dict[tuple[int, int], Decision]:
        """The decision of every edge not in errors, keyed by (i, j)."""
        decided = np.flatnonzero(self.outcome != FAILED)
        return dict(zip(
            zip(self.src[decided].tolist(), self.dst[decided].tolist()),
            map(DECISIONS.__getitem__, self.outcome[decided].tolist()),
        ))

    def as_matrix_dict(self) -> dict[str, np.ndarray]:
        """The matrices keyed by their section names T, A, B, C, R."""
        return {
            "T": self.t_matrix,
            "A": self.a_matrix,
            "B": self.b_matrix,
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

    The uniforms are taken DRAW_CHUNK at a time; rng.random(k) gives
    the same values as k calls of rng.random(), so walking the chunks
    consumes them in exactly the order above.
    """
    n = config.node_count
    pairs = n * (n - 1)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    found: list[tuple[np.ndarray, np.ndarray]] = []  # (pair index, three values) per chunk
    done = 0  # pairs whose draws are walked
    carry = np.empty(0)  # an edge record cut off by the end of the last chunk
    while done < pairs:
        draws = np.concatenate((carry, rng.random(min(DRAW_CHUNK, pairs - done))))
        starts = _edge_starts(draws, config.edge_probability)
        # pair index of each edge in the chunk: every earlier pair took one
        # draw, every earlier edge three more
        pair = starts - 3 * np.arange(len(starts))
        keep = pair < pairs - done
        starts, pair = starts[keep], pair[keep]
        if len(starts) and starts[-1] + 3 >= len(draws):
            # the last edge's values run past the chunk: walk it again with the next
            carry, walked = draws[starts[-1]:], pair[-1]
            starts, pair = starts[:-1], pair[:-1]
        else:
            carry, walked = draws[:0], len(draws) - 3 * len(starts)
        found.append((done + pair, draws[starts[:, None] + np.arange(1, 4)]))
        done = min(done + walked, pairs)
    pair = np.concatenate([pair for pair, _ in found])
    values = np.concatenate([values for _, values in found]).reshape(-1, 3)
    src, rest = np.divmod(pair, n - 1)
    dst = rest + (rest >= src)
    return Network(
        n, src + 1, dst + 1, values[:, 0],
        values[:, 1], np.full(len(pair), config.variance_direct),
        values[:, 2], np.full(len(pair), config.variance_indirect),
        np.full(n, config.max_acceptable_risk),
    )


def run_assessment(network: Network, combiner: Combiner = combined_trust) -> AssessmentResult:
    """Evaluate every edge of the network and fill the result matrices.

    The evaluating node of edge (i, j) is i, so its appetite applies.
    Every edge ends in exactly one of decisions and errors, with the
    outcome evaluate_request gives it.  A TrustError on one edge (a
    fusion failure, or a combiner value outside [0, 1]) poisons only that
    edge: its C and R cells stay 0, no decision is recorded, and an
    EdgeError named after the exception class is appended while the
    remaining edges proceed.

    A combiner listed in COLUMN_COMBINERS is evaluated on the columns of
    all edges that reach C at once; evaluate_request then runs only on
    the edges where that gives no value in [0, 1], to raise their error.
    Any other combiner is called through evaluate_request once per edge
    that reaches C.
    """
    n = network.node_count
    required = network.required
    outcome = np.full(len(required), FAILED, dtype=np.int8)
    combined = np.zeros(len(required))
    risk = np.zeros(len(required))
    direct = network.direct_mean >= required
    indirect = ~direct & (network.indirect_mean >= required)
    outcome[direct] = _CODE[Decision.ACCEPT_DIRECT]
    outcome[indirect] = _CODE[Decision.ACCEPT_INDIRECT]
    fused = np.flatnonzero(~direct & ~indirect)
    columns = COLUMN_COMBINERS.get(combiner)
    if columns is not None:
        value = columns(network.direct_mean[fused], network.direct_variance[fused],
                        network.indirect_mean[fused], network.indirect_variance[fused])
        valid = (value >= 0.0) & (value <= 1.0)  # False for NaN
        decided, per_edge = fused[valid], fused[~valid]
        value = value[valid]
        shortfall = np.maximum(required[decided] - value, 0.0)
        combined[decided] = value
        risk[decided] = shortfall
        outcome[decided] = np.where(
            shortfall == 0.0, _CODE[Decision.ACCEPT_COMBINED],
            np.where(shortfall <= network.max_risk[network.src[decided] - 1],
                     _CODE[Decision.ACCEPT_WITH_RISK], _CODE[Decision.DECLINE]))
    else:
        per_edge = fused
    errors: list[EdgeError] = []
    for k, i, j, need, direct_mean, direct_var, indirect_mean, indirect_var in zip(
        per_edge.tolist(), *(column[per_edge].tolist() for column in (
            network.src, network.dst, required, network.direct_mean, network.direct_variance,
            network.indirect_mean, network.indirect_variance))
    ):
        try:
            record = evaluate_request(need, TrustEstimate(direct_mean, direct_var),
                                      TrustEstimate(indirect_mean, indirect_var),
                                      network.appetite_for(i), combiner)
        except TrustError as exc:
            errors.append(EdgeError(i, j, type(exc).__name__, str(exc)))
            continue
        combined[k] = record.combined
        risk[k] = record.risk
        outcome[k] = _CODE[record.decision]

    t = np.zeros((n, n))
    r = np.zeros((n, n))
    a = np.eye(n)
    b = np.eye(n)
    c = np.eye(n)
    for matrix, column in ((t, required), (a, network.direct_mean),
                           (b, network.indirect_mean), (c, combined), (r, risk)):
        matrix.flat[network.cell] = column
    return AssessmentResult(t, a, b, c, r, network.src, network.dst, outcome, errors)


def fifteen_node_config() -> ScenarioConfig:
    """The committed fifteen-node experiment configuration."""
    return ScenarioConfig(seed=FIFTEEN_NODE_SEED, node_count=15, edge_probability=0.3)

