"""Directed trust networks: seeded generation and batch assessment.

Node ids run from 1 to node_count.  Trust is asymmetric, so the edges
(i, j) and (j, i) are independent, and there are no self-edges: a node
blindly trusts itself, which shows up only as the diagonal of the result
matrices (1 for A, B, C and 0 for T, R) and never enters a calculation.

Edges are evaluated independently of each other, so run_assessment may
be parallelised over edges without coordination; the serial loop below
already produces schedule-independent output because every edge writes
to its own matrix cell.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .decision import Combiner, Decision, RiskAppetite, combined_trust, evaluate_request
from .errors import ConfigurationError, TrustError
from .fusion import DEFAULT_VARIANCE, TrustEstimate, _check_unit_interval

# Committed seed of the fifteen-node reference experiment.  Chosen once
# so that the scenario reproduces bit-identically on every platform; at
# edge probability 0.3 it yields 61 edges and no degenerate estimates.
FIFTEEN_NODE_SEED = 196


@dataclass(frozen=True)
class Edge:
    """Trust data of one directed edge: requirement and the two sources."""

    required: float
    direct: TrustEstimate
    indirect: TrustEstimate

    def __post_init__(self) -> None:
        _check_unit_interval("required", self.required)


@dataclass(frozen=True)
class Network:
    """Directed graph of nodes with per-edge trust data and per-node appetite.

    appetites is normalised to hold an entry for every node; nodes not
    supplied at construction get the conservative default appetite 0.
    """

    node_count: int
    edges: dict[tuple[int, int], Edge]
    appetites: dict[int, RiskAppetite] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise ConfigurationError(f"node_count must be >= 1, got {self.node_count}")
        ids = range(1, self.node_count + 1)
        for i, j in self.edges:
            if i == j:
                raise ConfigurationError(f"self-edge ({i}, {j}) is not allowed")
            if i not in ids or j not in ids:
                raise ConfigurationError(f"edge ({i}, {j}) endpoint out of range 1..{self.node_count}")
        for node in self.appetites:
            if node not in ids:
                raise ConfigurationError(f"appetite for unknown node {node}")
        full = {node: self.appetites.get(node, RiskAppetite()) for node in ids}
        object.__setattr__(self, "appetites", full)

    def appetite_for(self, node: int) -> RiskAppetite:
        return self.appetites[node]


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


@dataclass(eq=False)
class AssessmentResult:
    """Five matrices plus per-edge decisions for one assessment run.

    Matrix cell [i-1, j-1] belongs to the edge from node i to node j.
    Conventions: T and R diagonals are 0, the A, B, C diagonals are 1;
    absent edges are 0 in all matrices; a combined value that was never
    computed (short-circuited or errored edge) is rendered 0.
    """

    t_matrix: np.ndarray
    a_matrix: np.ndarray
    b_matrix: np.ndarray
    c_matrix: np.ndarray
    r_matrix: np.ndarray
    decisions: dict[tuple[int, int], Decision]
    errors: list[EdgeError]

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
        tally = {d.value: 0 for d in Decision}
        for decision in self.decisions.values():
            tally[decision.value] += 1
        return tally


def generate_network(config: ScenarioConfig) -> Network:
    """Draw a random network from the seeded generator.

    The generator is PCG64 seeded with config.seed.  Draws are consumed
    in row-major order over ordered pairs (i, j), i != j: one uniform
    for edge existence, then, only for pairs that got an edge, one
    uniform each for the required trust, the direct mean and the
    indirect mean.
    """
    rng = np.random.Generator(np.random.PCG64(config.seed))
    edges: dict[tuple[int, int], Edge] = {}
    for i in range(1, config.node_count + 1):
        for j in range(1, config.node_count + 1):
            if i == j:
                continue
            if rng.random() >= config.edge_probability:
                continue
            edges[(i, j)] = Edge(
                required=rng.random(),
                direct=TrustEstimate(rng.random(), config.variance_direct),
                indirect=TrustEstimate(rng.random(), config.variance_indirect),
            )
    appetites = {
        node: RiskAppetite(config.max_acceptable_risk)
        for node in range(1, config.node_count + 1)
    }
    return Network(config.node_count, edges, appetites)


def run_assessment(network: Network, combiner: Combiner = combined_trust) -> AssessmentResult:
    """Evaluate every edge of the network and fill the result matrices.

    The evaluating node of edge (i, j) is i, so its appetite applies.
    Every edge ends in exactly one of decisions and errors.  A TrustError
    on one edge (a fusion failure, or a combiner value outside [0, 1])
    poisons only that edge: its C and R cells stay 0, no decision is
    recorded, and an EdgeError named after the exception class is
    appended while the remaining edges proceed.
    """
    n = network.node_count
    t = np.zeros((n, n))
    r = np.zeros((n, n))
    a = np.eye(n)
    b = np.eye(n)
    c = np.eye(n)
    decisions: dict[tuple[int, int], Decision] = {}
    errors: list[EdgeError] = []
    for (i, j) in sorted(network.edges):
        edge = network.edges[(i, j)]
        t[i - 1, j - 1] = edge.required
        a[i - 1, j - 1] = edge.direct.mean
        b[i - 1, j - 1] = edge.indirect.mean
        try:
            record = evaluate_request(
                edge.required, edge.direct, edge.indirect, network.appetite_for(i), combiner
            )
        except TrustError as exc:
            errors.append(EdgeError(i, j, type(exc).__name__, str(exc)))
            continue
        if record.combined is not None:
            c[i - 1, j - 1] = record.combined
        r[i - 1, j - 1] = record.risk
        decisions[(i, j)] = record.decision
    return AssessmentResult(t, a, b, c, r, decisions, errors)


def fifteen_node_config() -> ScenarioConfig:
    """The committed fifteen-node experiment configuration."""
    return ScenarioConfig(seed=FIFTEEN_NODE_SEED, node_count=15, edge_probability=0.3)

