"""Directed trust networks: seeded generation and batch assessment.

Node ids run from 1 to node_count.  Trust is asymmetric, so the edges
(i, j) and (j, i) are independent, and there are no self-edges: a node
blindly trusts itself, which shows up only as the diagonal of the result
matrices and never enters a calculation.

A Network is a columnar edge table: one numpy array per edge field, in
row-major (i, j) order, plus one appetite per node.  Its one constructor
takes and checks those columns; generate_network and the document loader
fill them, and an Edge is only read back from them.  Edges are evaluated
independently, so run_assessment decides them with array expressions,
CHUNK edges at a time; the scalar combiner gives C or names the error
only on the edges that its column form leaves without a C (on all that
reach C, for a combiner that has none).  The result is an edge table
too: C, R and the outcome of every edge; T, A and B stay in the network.
_section_blocks lays each matrix section out in blocks of rows, for the
result's dense matrices and for the writers in documents alike.
"""
from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
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
from .errors import ConfigurationError, TrustError
from .fusion import DEFAULT_VARIANCE, TrustEstimate, _check_unit_interval, _check_variance

# Committed seed of the fifteen-node reference experiment.  Chosen once
# so that the scenario reproduces bit-identically on every platform; at
# edge probability 0.3 it yields 61 edges and no degenerate estimates.
FIFTEEN_NODE_SEED = 196

# The per-edge float columns of a Network, in Edge field order.
EDGE_COLUMNS = ("required", "direct_mean", "direct_variance", "indirect_mean", "indirect_variance")

# Uniforms taken from the generator at a time by generate_network, and
# edges decided at a time by run_assessment.
CHUNK = 1 << 14


def _check_integer(name: str, value) -> int:
    # numpy would read True as 1, and reject 1.5 only when generating; a numpy integer
    # is returned as an int, which later arithmetic cannot overflow
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _frozen(array: np.ndarray) -> bool:
    """True if array and every array it views are read-only, down to one that owns
    its memory; a view of a writable array, a file map or a buffer is not frozen."""
    while isinstance(array, np.ndarray) and not array.flags.writeable:
        if array.flags.owndata:
            return True
        array = array.base
    return False


def _own(column: np.ndarray, dtype) -> np.ndarray:
    """column itself if it is a frozen one-dimensional array of dtype, else a frozen copy."""
    if column.ndim != 1 or column.dtype != dtype or not _frozen(column):
        # a copy, so that freezing it leaves the caller's array alone
        column = np.array(column, dtype=dtype, ndmin=1)
        column.flags.writeable = False
    return column


def _is_node_id(node, n: int) -> bool:
    """True for an integer 1..n that is not a bool."""
    integer = type(node) is int or isinstance(node, Integral) and not isinstance(node, bool)
    return integer and 1 <= node <= n


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
            if not (_is_node_id(i, n) and _is_node_id(j, n)):
                raise KeyError(key)
        except (TypeError, ValueError):
            raise KeyError(key) from None
        # row i's edges, then j among them; int(i) + 1, as np.int8(127) + 1 would wrap
        low, high = network.src.searchsorted(int(i)), network.src.searchsorted(int(i) + 1)
        index = low + network.dst[low:high].searchsorted(int(j))
        if index == high or network.dst[index] != j:
            raise KeyError(key)
        required, direct_mean, direct_var, indirect_mean, indirect_var = (
            float(getattr(network, name)[index]) for name in EDGE_COLUMNS)
        return Edge(required, TrustEstimate(direct_mean, direct_var),
                    TrustEstimate(indirect_mean, indirect_var))


class Network:
    """Directed graph of nodes with per-edge trust data and per-node appetite.

    The edges are held as read-only columns, one entry per edge in
    row-major (src, dst) order: src and dst (integer node ids) and the
    float columns named in EDGE_COLUMNS.  max_risk holds the appetite of
    node i at index i - 1.

    The constructor takes one-dimensional columns in any edge order.  A
    column that is already a read-only one-dimensional ndarray of the
    column's dtype (int64 for src and dst, float64 for the rest), whose
    base arrays down to the one owning the memory are read-only too, is
    stored as given, a 0-stride broadcast view of a frozen array
    included.  Any other is copied and frozen, so the caller's writable
    arrays stay writable and no later write to them reaches the network.  A
    column is sorted into row-major order by a copy.  A float value
    must lie in [0, 1] and a variance be positive: fusion's two value
    rules raise, named after the column and the first edge or node
    breaking the rule.  edges reads the columns back as a mapping.
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
        n = _check_integer("node_count", node_count)
        if n < 1:
            raise ConfigurationError(f"node_count must be >= 1, got {n}")
        given = (src, dst, required, direct_mean, direct_variance, indirect_mean,
                 indirect_variance, max_risk)
        columns = []
        for name, items in zip(("src", "dst", *EDGE_COLUMNS, "max_risk"), given):
            try:
                column = np.asarray(items)
            except ValueError:  # numpy cannot shape a ragged nested sequence
                raise ConfigurationError(
                    f"{name} must be one-dimensional, got a nested sequence") from None
            # the casts below would read 1.9 and True as node 1, and True or '0.5' as a number;
            # a list of numbers has their dtype, so its items are scanned for a hidden bool
            ends = name in ("src", "dst")
            kinds, what = ("iu", "integer node ids") if ends else ("iuf", "numbers")
            if column.size and column.dtype.kind not in kinds:
                raise ConfigurationError(f"{name} must hold {what}, got {column.dtype}")
            if column.ndim > 1:  # flattening it would hide a bool in a nested list
                raise ConfigurationError(f"{name} must be one-dimensional, got {column.ndim} dims")
            if column.ndim == 1 and not isinstance(items, np.ndarray) and not {
                    bool, np.bool_}.isdisjoint(map(type, items)):
                raise ConfigurationError(f"{name} must hold {what}, got bool")
            columns.append(_own(column, np.int64 if ends else np.float64))
        src, dst, *columns, max_risk = columns
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
            rule, ok = ((_check_variance, column > 0.0) if name.endswith("variance") else
                        (_check_unit_interval, (column >= 0.0) & (column <= 1.0)))
            if not ok.all():  # NaN breaks either rule; ok is the rule's own test, so it raises
                k = int(ok.argmin())
                where = f"node {k + 1}" if name == "max_risk" else f"edge ({src[k]}, {dst[k]})"
                rule(f"{where}: {name}", float(column[k]))
        # each (src, dst) pair after the one before it; only bool temporaries on sorted input
        if not np.all((src[1:] > src[:-1]) | (src[1:] == src[:-1]) & (dst[1:] > dst[:-1])):
            order = np.lexsort((dst, src))  # stable
            src, dst = src[order], dst[order]
            columns = [column[order] for column in columns]
            same = np.flatnonzero((src[1:] == src[:-1]) & (dst[1:] == dst[:-1]))
            if same.size:
                raise ConfigurationError(f"duplicate edge ({src[same[0]]}, {dst[same[0]]})")
            for array in (src, dst, *columns):
                array.flags.writeable = False
        self.node_count = n
        self.src, self.dst, self.max_risk = src, dst, max_risk
        (self.required, self.direct_mean, self.direct_variance,
         self.indirect_mean, self.indirect_variance) = columns

    @property
    def edges(self) -> EdgeView:
        return EdgeView(self)

    def appetite_for(self, node: int) -> RiskAppetite:
        """The appetite of node 1..node_count; KeyError for anything else, a bool included."""
        if not _is_node_id(node, self.node_count):
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
            object.__setattr__(self, name, _check_integer(name, getattr(self, name)))
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


# Each matrix section, in table order: its diagonal, and its column of network or result.
_SECTIONS = {"T": (0.0, "required"), "A": (1.0, "direct_mean"), "B": (1.0, "indirect_mean"),
            "C": (1.0, "combined"), "R": (0.0, "risk")}


def _section_blocks(result: AssessmentResult, name: str, rows: int) -> Iterator[np.ndarray]:
    """Section name of result as an n x n matrix in blocks of up to rows rows: the
    section's diagonal, its column at the edges' cells, 0 elsewhere.  Each block is
    refilled in one buffer, so it holds its values until the next block is made."""
    diagonal, column = _SECTIONS[name]
    network = result.network
    values = getattr(network if column in EDGE_COLUMNS else result, column)
    n, src, dst = network.node_count, network.src, network.dst
    buffer = np.empty((min(rows, n), n))
    for first in range(0, n, rows):
        block = buffer[:n - first]
        block.fill(0.0)
        flat = block.reshape(-1)
        flat[first::n + 1] = diagonal
        low, high = np.searchsorted(src, (first + 1, first + len(block) + 1))
        flat[(src[low:high] - (first + 1)) * n + dst[low:high] - 1] = values[low:high]
        yield block


def _dense(result: AssessmentResult, name: str) -> np.ndarray:
    """Section name of result as one read-only n x n matrix."""
    (matrix,) = _section_blocks(result, name, result.network.node_count)
    matrix.base.flags.writeable = matrix.flags.writeable = False  # the view and its buffer
    return matrix


@dataclass(eq=False)
class AssessmentResult:
    """What one assessment run computed, as columns in the edge order of network.

    combined holds C and risk R = max(0, T - C) of every edge; both are 0
    for an edge whose C was never computed (short-circuited or errored).
    outcome holds the index of each edge's decision in DECISIONS, or
    FAILED for an edge in errors.  All three are read-only.

    c_matrix and r_matrix lay C and R out as read-only n x n matrices,
    built on first access and kept: cell [i-1, j-1] belongs to the edge
    from node i to node j, the diagonal is as _SECTIONS states, and an
    absent edge is 0.  as_matrix_dict adds those of T, A and B.
    """

    network: Network
    combined: np.ndarray
    risk: np.ndarray
    outcome: np.ndarray
    errors: list[EdgeError]

    c_matrix = cached_property(lambda self: _dense(self, "C"))
    r_matrix = cached_property(lambda self: _dense(self, "R"))

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
        kept = {"C": self.c_matrix, "R": self.r_matrix}
        return {name: kept[name] if name in kept else _dense(self, name) for name in _SECTIONS}

    def decision_tally(self) -> dict[str, int]:
        """Count of edges per decision name, every outcome listed."""
        # one comparison per decision; np.bincount would cast outcome to an intp copy
        return {decision.value: int(np.count_nonzero(self.outcome == code))
                for code, decision in enumerate(DECISIONS)}


def _edge_starts(draws: np.ndarray, probability: float) -> np.ndarray:
    """Positions of the edge records in a run of draws that begins a record.

    A record is one draw u, plus three more when u < probability.  The
    parse runs in numpy: the first hit (a draw below probability) starts
    a record, and jump[k] is the hit that starts the record after one at
    hit k, the first hit four or more draws on.  Pointer doubling follows
    that chain in log2(records) passes, each appending one jump of every
    position to the chain and composing jump with itself, until the
    chain reaches the end, len(hits), which jumps to itself.
    """
    hits = np.flatnonzero(draws < probability)
    jump = np.append(np.searchsorted(hits, hits + 4), len(hits))
    chain = np.zeros(1, dtype=np.int64)
    while chain[-1] < len(hits):
        chain = np.concatenate((chain, jump[chain]))
        jump = jump[jump]
    return hits[chain[:np.searchsorted(chain, len(hits))]]


def _capacity(pairs: int, probability: float) -> int:
    """Room for the edges of pairs draws at probability: six standard deviations
    above the mean of their Binomial(pairs, probability) count, and never past pairs."""
    mean = pairs * probability
    return min(pairs, int(mean + 6.0 * math.sqrt(mean * (1.0 - probability))) + 16)


def generate_network(config: ScenarioConfig) -> Network:
    """Draw a random network from the seeded generator.

    The generator is PCG64 seeded with config.seed.  Draws are consumed
    in row-major order over ordered pairs (i, j), i != j: one uniform
    for edge existence, then, only for pairs that got an edge, one
    uniform each for the required trust, the direct mean and the
    indirect mean.

    The uniforms are taken at most CHUNK at a time, and each chunk starts
    on an edge record.  rng.random(k) followed by rng.random(m) gives the
    same values as rng.random(k + m), so a chunk whose last record runs
    past its end draws the missing values at once, and the chunks consume
    the uniforms in exactly the order above.

    The edge data is written once, chunk by chunk, into rows sized for
    the edge count, a Binomial(pairs, p) variable: _capacity leaves room
    for six standard deviations above its mean, and the rare run that
    needs more widens the rows.  The columns are views of those rows,
    frozen, so Network stores them as they are; the constant variances
    are 0-stride broadcast views of one frozen array of the two values.
    """
    n = config.node_count
    pairs = n * (n - 1)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    ends = np.empty((2, _capacity(pairs, config.edge_probability)), np.int64)  # src, dst
    values = np.empty((3, ends.shape[1]))  # required, direct mean, indirect mean
    edges = 0  # edges found
    done = 0  # pairs whose draws are taken
    while done < pairs:
        draws = rng.random(min(CHUNK, pairs - done))
        starts = _edge_starts(draws, config.edge_probability)
        if len(starts) and starts[-1] + 4 > len(draws):
            draws = np.concatenate((draws, rng.random(starts[-1] + 4 - len(draws))))
        if edges + len(starts) > ends.shape[1]:  # past six standard deviations: widen
            more = ((0, 0), (0, max(ends.shape[1], edges + len(starts) - ends.shape[1])))
            ends, values = np.pad(ends, more), np.pad(values, more)
        found = slice(edges, edges + len(starts))
        # pair index of each edge in the chunk: every earlier pair took one
        # draw, every earlier edge three more; dst - 1 is first the rank of
        # j among the nodes other than i
        src, dst = np.divmod(done + starts - 3 * np.arange(len(starts)), n - 1)
        dst += dst >= src
        ends[:, found] = src + 1, dst + 1
        for k in (1, 2, 3):
            values[k - 1, found] = draws[starts + k]
        edges += len(starts)
        done += len(draws) - 3 * len(starts)
    max_risk = np.full(n, config.max_acceptable_risk, float)
    variances = np.array([config.variance_direct, config.variance_indirect], float)
    for array in (ends, values, max_risk, variances):
        array.flags.writeable = False
    (src, dst), (required, direct_mean, indirect_mean) = ends[:, :edges], values[:, :edges]
    direct_var, indirect_var = np.broadcast_to(variances[:, None], (2, edges))
    return Network(n, src, dst, required, direct_mean, direct_var, indirect_mean, indirect_var,
                   max_risk)


def run_assessment(network: Network, combiner: Combiner = combined_trust) -> AssessmentResult:
    """Decide every edge of the network and fill its C and R columns.

    The evaluating node of edge (i, j) is i, so its appetite applies.
    Every edge ends in exactly one of decisions and errors, with the
    outcome the scalar decision chain gives it.  A TrustError on one edge
    (a fusion failure, or a combiner value not a real number in [0, 1])
    poisons only that edge: its C and R stay 0, no decision is recorded,
    and an EdgeError named after the exception class is appended while
    the remaining edges proceed.  errors follow the edge order.

    The edges are decided CHUNK at a time.  A combiner listed in
    COLUMN_COMBINERS gives C for all edges of a chunk that reach it at
    once.  The scalar combiner then runs once on each of those edges left
    without a C in [0, 1] (all of them, for any other combiner), only to
    supply that C or to raise the edge's error.  One array pass sets R
    and, through fused_code, the decision of every edge that has a C.
    """
    size = len(network.src)
    outcome = np.full(size, FAILED, dtype=np.int8)
    combined, risk = np.zeros(size), np.zeros(size)
    errors: list[EdgeError] = []
    columns = COLUMN_COMBINERS.get(combiner)
    for start in range(0, size, CHUNK):
        chunk = slice(start, start + CHUNK)
        required, direct_mean, direct_var, indirect_mean, indirect_var = (
            getattr(network, name)[chunk] for name in EDGE_COLUMNS)
        direct = direct_mean >= required
        indirect = ~direct & (indirect_mean >= required)
        outcome[chunk][direct] = DECISIONS.index(Decision.ACCEPT_DIRECT)
        outcome[chunk][indirect] = DECISIONS.index(Decision.ACCEPT_INDIRECT)
        fused = np.flatnonzero(~direct & ~indirect)
        value = np.full(len(fused), np.nan) if columns is None else columns(
            direct_mean[fused], direct_var[fused], indirect_mean[fused], indirect_var[fused])
        valid = (value >= 0.0) & (value <= 1.0)  # False for NaN
        missing = np.flatnonzero(~valid)
        for k, i, j, direct_m, direct_v, indirect_m, indirect_v in zip(
            missing.tolist(), *(column[fused[missing]].tolist() for column in (
                network.src[chunk], network.dst[chunk], direct_mean, direct_var,
                indirect_mean, indirect_var))
        ):
            try:  # checked before it is stored, where a NaN would read np.float64(nan)
                value[k] = _check_unit_interval("achieved", combiner(
                    TrustEstimate(direct_m, direct_v), TrustEstimate(indirect_m, indirect_v)))
            except TrustError as exc:
                errors.append(EdgeError(i, j, type(exc).__name__, str(exc)))
            else:
                valid[k] = True
        decided, value = fused[valid], value[valid]
        shortfall = np.maximum(required[decided] - value, 0.0)
        decided += start
        outcome[decided] = fused_code(shortfall, network.max_risk[network.src[decided] - 1])
        combined[decided] = value
        risk[decided] = shortfall
    for column in (combined, risk, outcome):
        column.flags.writeable = False
    return AssessmentResult(network, combined, risk, outcome, errors)


def fifteen_node_config() -> ScenarioConfig:
    """The committed fifteen-node experiment configuration."""
    return ScenarioConfig(seed=FIFTEEN_NODE_SEED, node_count=15, edge_probability=0.3)

