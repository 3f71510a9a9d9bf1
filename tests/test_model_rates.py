"""The paper's model as an oracle for the tallies of a whole run.

generate_network draws T, A and B uniform on [0, 1) for every edge, and
ScenarioConfig gives both sources one variance v.  For fixed (A, B), the
A -> B -> C chain then splits the T-interval [0, 1] into the outcomes:

    T <= A                     AcceptDirect
    A < T <= B                 AcceptIndirect
    max(A, B) < T              the edge reaches C, and then
      the fusion fails         InvalidVarianceError or DegeneratePosteriorError
      T <= C                   AcceptCombined
      C < T <= C + appetite    AcceptWithRisk
      C + appetite < T         Decline

so the probability of each outcome is the integral over (A, B) of the
length of its T-interval.  model_rates takes it on a midpoint grid.  The
moment inversion and the posterior are restated as perfbench/gate.py
states them, not taken from the fusion code that the runs check.
"""
import math
from functools import cache

import numpy as np
import pytest

from betatrust import DEFAULT_VARIANCE, ScenarioConfig, generate_network, run_assessment
from betatrust.decision import COMBINERS

# restated from fusion, as in perfbench/gate.py
MEAN_EPSILON = 1e-6

# Cells per unit length of the grid over each of A and B.  Halving the step moves no
# rate by more than a tenth of its tolerance (test_grid_is_fine_enough).
GRID_STEPS = 500

NODES = 300
EDGES = NODES * (NODES - 1)  # edge_probability 1.0 makes every ordered pair an edge
SEEDS = (0, 7, 501)
SIGMAS = 4.5


def tolerance(probability: float) -> float:
    """SIGMAS binomial standard deviations of the rate of an outcome over EDGES edges."""
    return SIGMAS * math.sqrt(probability * (1.0 - probability) / EDGES)


def lowest_invertible_mean(variance: float) -> float:
    """The smaller root of m(1 - m) = variance: the moment inversion fails for a mean at or
    below it, or at or above 1 minus it."""
    return (1.0 - math.sqrt(1.0 - 4.0 * variance)) / 2.0


def grid(variance: float, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Midpoints and widths of a grid over [0, 1] of about steps cells per unit length.

    The two means at which the inversion starts and stops failing are cell edges: a cell
    across one would count its whole width on the side of its midpoint.
    """
    low = lowest_invertible_mean(variance)
    edges = np.concatenate([
        *(np.linspace(start, stop, math.ceil((stop - start) * steps) + 1)[:-1]
          for start, stop in ((0.0, low), (low, 1.0 - low), (1.0 - low, 1.0))),
        [1.0]])
    return (edges[1:] + edges[:-1]) / 2.0, np.diff(edges)


@cache
def model_rates(method: str, variance: float, appetite: float,
                steps: int = GRID_STEPS) -> dict[str, float]:
    """Probability of each decision and each error kind of one edge."""
    x, width = grid(variance, steps)
    a, b = x[:, None], x[None, :]
    top = np.maximum(a, b)
    invalid = degenerate = np.zeros(top.shape, dtype=bool)
    if method == "average":
        c = (a + b) / 2.0
    else:
        shapes = []
        for mean in (a, b):
            m = np.clip(mean, MEAN_EPSILON, 1.0 - MEAN_EPSILON)
            bound = m * (1.0 - m)
            invalid = invalid | (variance >= bound)
            alpha = m * (bound / variance - 1.0)
            shapes.append((alpha, alpha * (1.0 - m) / m))
        (alpha_a, beta_a), (alpha_b, beta_b) = shapes
        alpha, beta = alpha_a + alpha_b - 1.0, beta_a + beta_b - 1.0
        degenerate = ~invalid & ((alpha <= 0.0) | (beta <= 0.0))
        with np.errstate(all="ignore"):  # alpha + beta is 0 on some degenerate cells
            c = alpha / (alpha + beta)
    fused = ~(invalid | degenerate)
    lengths = {
        "AcceptDirect": a,
        "AcceptIndirect": np.maximum(b - a, 0.0),
        "AcceptCombined": np.where(fused, np.maximum(c - top, 0.0), 0.0),
        "AcceptWithRisk": np.where(
            fused, np.maximum(np.minimum(c + appetite, 1.0) - np.maximum(c, top), 0.0), 0.0),
        "Decline": np.where(fused, np.maximum(1.0 - np.maximum(c + appetite, top), 0.0), 0.0),
        "InvalidVarianceError": np.where(invalid, 1.0 - top, 0.0),
        "DegeneratePosteriorError": np.where(degenerate, 1.0 - top, 0.0),
    }
    area = width[:, None] * width[None, :]
    return {outcome: float((length * area).sum()) for outcome, length in lengths.items()}


@pytest.mark.parametrize("method", sorted(COMBINERS))
@pytest.mark.parametrize("appetite", [0.0, 0.1])
def test_grid_is_fine_enough(method, appetite):
    rates = model_rates(method, DEFAULT_VARIANCE, appetite)
    finer = model_rates(method, DEFAULT_VARIANCE, appetite, 2 * GRID_STEPS)
    for outcome, probability in finer.items():
        assert abs(rates[outcome] - probability) <= tolerance(probability) / 10, outcome
    # the outcomes split every T-interval
    assert sum(rates.values()) == pytest.approx(1.0, abs=1e-12)
    assert rates["AcceptDirect"] == pytest.approx(1 / 2, abs=1e-12)
    assert rates["AcceptIndirect"] == pytest.approx(1 / 6, abs=1e-5)


def test_failure_rate_at_the_default_variance():
    rates = model_rates("beta", 0.01, 0.0)
    # the inversion fails outside the square [low, 1 - low]^2; 1/3 is the mean of
    # 1 - max(A, B) over the unit square, and low + 2/3 side that of max(A, B) over the square
    low = lowest_invertible_mean(0.01)
    side = 1.0 - 2.0 * low
    invalid = 1 / 3 - side**2 * (1.0 - low - 2.0 / 3.0 * side)
    assert rates["InvalidVarianceError"] == pytest.approx(invalid, abs=1e-7)
    # the ROADMAP's 0.01759 came from a 4,000-step grid whose cells straddle the variance
    # bound; with the bound on a cell edge, grids of 500 to 6,000 steps give 0.01767-0.01768
    failed = rates["InvalidVarianceError"] + rates["DegeneratePosteriorError"]
    assert failed == pytest.approx(0.01767, abs=2e-5)
    assert abs(failed - 0.01759) < 1e-4


# The tolerance is statistical: each outcome's count over EDGES independent edges is
# binomial, and SIGMAS standard deviations leave a chance under 1e-5 per rate that a
# correct run strays outside.  The seeds 0, 7 and 501 are fixed, so the test is
# deterministic; an outcome the model rules out (probability 0) must not occur at all.
@pytest.mark.parametrize("method", sorted(COMBINERS))
@pytest.mark.parametrize("appetite", [0.0, 0.1])
@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_run_matches_the_model(seed, appetite, method):
    network = generate_network(ScenarioConfig(
        seed=seed, node_count=NODES, edge_probability=1.0, max_acceptable_risk=appetite))
    result = run_assessment(network, COMBINERS[method])
    assert len(network.src) == EDGES
    counts = dict(result.decision_tally(), InvalidVarianceError=0, DegeneratePosteriorError=0)
    for error in result.errors:
        counts[error.kind] += 1
    rates = model_rates(method, DEFAULT_VARIANCE, appetite)
    assert counts.keys() == rates.keys()
    for outcome, probability in rates.items():
        rate = counts[outcome] / EDGES
        assert abs(rate - probability) <= tolerance(probability), (outcome, rate, probability)
