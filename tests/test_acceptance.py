"""Acceptance suite: one test per criterion, at the stated tolerance.

Run with ``pytest tests/test_acceptance.py -v``; a PASS/FAIL line per
criterion is printed in the terminal summary (see conftest).
"""
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, optimize, stats

from betatrust import (
    Decision,
    Network,
    TrustError,
    TrustEstimate,
    combined_trust,
    evaluate_request,
    fifteen_node_config,
    generate_network,
    run_assessment,
)
from betatrust.documents import load_bundled_three_node
from betatrust.fusion import _checked_source, _fusion_weights

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.criterion(1, "reference-table risk arithmetic")
def test_c1_reference_table_risks():
    rows = [
        (0.7148, 0.4284, 0.2864),  # Beta-method column
        (0.5846, 0.4634, 0.1212),
        (0.7148, 0.4693, 0.2455),  # traditional column
        (0.5846, 0.4928, 0.0918),
    ]
    # the published C, through both copies of R = max(0, T - C)
    for required, combined, risk in rows:
        def published(direct, indirect):
            return combined

        record = evaluate_request(required, TrustEstimate(0.0), TrustEstimate(0.0),
                                  combiner=published)
        assert abs(record.risk - risk) <= 1e-4
        network = Network(node_count=2, src=[1], dst=[2], required=[required],
                          direct_mean=[0.0], direct_variance=[0.01],
                          indirect_mean=[0.0], indirect_variance=[0.01], max_risk=[0.0, 0.0])
        result = run_assessment(network, published)
        assert abs(result.r_matrix[0, 1] - risk) <= 1e-4


@pytest.mark.criterion(2, "three-node decision pattern and zero structure")
def test_c2_three_node_decision_pattern():
    result = run_assessment(load_bundled_three_node())
    assert result.decisions[(1, 2)] is Decision.ACCEPT_DIRECT
    assert result.decisions[(3, 2)] is Decision.ACCEPT_DIRECT
    assert result.decisions[(2, 1)] is Decision.ACCEPT_INDIRECT
    assert result.decisions[(2, 3)] is Decision.ACCEPT_INDIRECT
    assert result.decisions[(1, 3)].reached_combined
    assert result.decisions[(3, 1)].reached_combined
    # serialized zero pattern: combined and risk nonzero exactly at (1,3), (3,1)
    off_diagonal_nonzero_c = {
        (i + 1, j + 1) for i, j in zip(*np.nonzero(result.c_matrix)) if i != j
    }
    nonzero_r = {(i + 1, j + 1) for i, j in zip(*np.nonzero(result.r_matrix))}
    assert off_diagonal_nonzero_c == {(1, 3), (3, 1)}
    assert nonzero_r == {(1, 3), (3, 1)}


@pytest.mark.criterion(3, "weighted-sum identity over 10^4 random pairs")
def test_c3_weighted_sum_identity():
    rng = np.random.default_rng(3)
    pairs = 0
    while pairs < 10_000:
        mean_a, mean_b = rng.uniform(0.05, 0.95, size=2)
        frac_a, frac_b = rng.uniform(0.02, 0.9, size=2)
        a = TrustEstimate(mean_a, frac_a * mean_a * (1 - mean_a))
        b = TrustEstimate(mean_b, frac_b * mean_b * (1 - mean_b))
        alpha_a, beta_a = _checked_source(a.mean, a.variance)
        alpha_b, beta_b = _checked_source(b.mean, b.variance)
        if alpha_a + alpha_b <= 1.0 or beta_a + beta_b <= 1.0:
            continue  # degenerate combination raises by contract
        pairs += 1
        k, w_a, w_b = _fusion_weights(alpha_a, beta_a, alpha_b, beta_b)
        # the posterior mean, (aA + aB - 1) / k, as the weighted sum of the source means
        posterior_mean = (alpha_a + alpha_b - 1.0) / k
        assert abs(w_a * a.mean + w_b * b.mean - posterior_mean) <= 1e-12
        assert abs(combined_trust(a, b) - posterior_mean) <= 1e-12


@pytest.mark.criterion(4, "method-of-moments round trip over 10^4 estimates")
def test_c4_moment_round_trip():
    rng = np.random.default_rng(4)
    moments, shapes = [], []
    for _ in range(10_000):
        mean = rng.uniform(0.001, 0.999)
        variance = rng.uniform(0.001, 0.999) * mean * (1 - mean)
        estimate = TrustEstimate(mean, variance)
        moments.append((estimate.mean, estimate.variance))
        shapes.append(_checked_source(estimate.mean, estimate.variance))
    # scipy's Beta with the recovered shapes has the estimate's moments
    mean, variance = np.array(moments).T
    scipy_mean, scipy_variance = stats.beta(*np.array(shapes).T).stats("mv")
    assert np.all(np.abs(scipy_mean - mean) <= 1e-10 * mean)
    assert np.all(np.abs(scipy_variance - variance) <= 1e-10 * variance)


def _estimate_with_shapes(alpha, beta):
    """The estimate whose moments are those of scipy's Beta(alpha, beta)."""
    return TrustEstimate(*map(float, stats.beta.stats(alpha, beta, moments="mv")))


@pytest.mark.criterion(5, "conjugacy vs 10^5-point grid quadrature, 100 pairs")
def test_c5_conjugacy_grid_oracle():
    grid = (np.arange(100_000) + 0.5) / 100_000
    log_grid = np.log(grid)
    log_grid_1m = np.log1p(-grid)
    rng = np.random.default_rng(42)
    accepted = 0
    attempts = 0
    while accepted < 100:
        attempts += 1
        assert attempts < 1_000
        aa, ba, ab, bb = rng.uniform(0.5, 20.0, size=4)
        if min(aa + ab - 1.0, ba + bb - 1.0) < 1.0:
            # a sub-1 posterior shape puts an integrable singularity at an
            # endpoint, beyond what a uniform grid resolves; that regime is
            # covered by the adaptive-quadrature conjugacy property test
            continue
        accepted += 1
        combined = combined_trust(_estimate_with_shapes(aa, ba), _estimate_with_shapes(ab, bb))
        log_kernel = (aa + ab - 2.0) * log_grid + (ba + bb - 2.0) * log_grid_1m
        kernel = np.exp(log_kernel - log_kernel.max())
        grid_mean = float((grid * kernel).sum() / kernel.sum())
        assert abs(grid_mean - combined) <= 1e-6


@pytest.mark.criterion(6, "C is the mean of the product of the source densities")
def test_c6_mean_of_the_density_product():
    # the indirect source has alpha below 1, so W_B is negative, and beside
    # a direct alpha of 0.5 the product is singular, but integrable, at 0
    indirect_pdf = stats.beta(0.75, 1.5).pdf
    indirect = _estimate_with_shapes(0.75, 1.5)
    for alpha in (0.5, 1.0, 2.0, 5.0, 20.0):
        for beta in (0.5, 1.0, 2.0, 5.0, 20.0):
            direct_pdf = stats.beta(alpha, beta).pdf
            mass, _ = integrate.quad(lambda x: direct_pdf(x) * indirect_pdf(x), 0.0, 1.0,
                                     limit=200)
            first, _ = integrate.quad(lambda x: x * direct_pdf(x) * indirect_pdf(x), 0.0, 1.0,
                                      limit=200)
            combined = combined_trust(_estimate_with_shapes(alpha, beta), indirect)
            assert abs(first / mass - combined) <= 1e-6


@pytest.mark.criterion(7, "fifteen-node determinism and structure")
def test_c7_fifteen_node_run():
    started = time.perf_counter()
    config = fifteen_node_config()
    first = run_assessment(generate_network(config))
    second = run_assessment(generate_network(config))
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0

    for name, matrix in first.as_matrix_dict().items():
        assert matrix.tobytes() == second.as_matrix_dict()[name].tobytes()
    assert first.decisions == second.decisions

    network = generate_network(config)
    for node in range(1, 16):
        peers = [peer for peer in range(1, 16) if peer != node]
        row = first.r_matrix[node - 1, [peer - 1 for peer in peers]]
        assert len(row) == 14
        for peer, risk in zip(peers, row):
            if (node, peer) not in network.edges:
                assert risk == 0.0
            if risk > 0.0:
                assert (node, peer) in network.edges
    for matrix in (first.c_matrix, first.r_matrix):
        assert matrix.min() >= 0.0 and matrix.max() <= 1.0


# the reference table's Beta-method C at the two bundled edges that reach C
PUBLISHED_C = {(1, 3): 0.4284, (3, 1): 0.4634}
# candidate variances, log-spaced over [1e-4, 0.25): 0.25 is the bound m*(1-m) at m = 0.5
VARIANCES = np.geomspace(1e-4, 0.25, 301)[:-1].tolist()


def _bundled_fusion():
    """C(edge, direct variance, indirect variance) at the bundled T, A and B; None if it fails."""
    network = load_bundled_three_node()
    means = {(i, j): (a, b) for i, j, a, b in zip(network.src.tolist(), network.dst.tolist(),
                                                  network.direct_mean.tolist(),
                                                  network.indirect_mean.tolist())}

    def fused(edge, var_direct, var_indirect):
        direct, indirect = means[edge]
        try:
            return combined_trust(TrustEstimate(direct, var_direct),
                                  TrustEstimate(indirect, var_indirect))
        except TrustError:
            return None
    return fused


@pytest.mark.criterion(8, "the reference table's C column is out of reach of the variances")
def test_c8_reference_c_column_not_reproduced():
    fused = _bundled_fusion()
    # one variance shared by all sources: C starts past each published value at
    # 1e-4, by more than its rounding, and moves away from it as the variance grows
    for edge, published in PUBLISHED_C.items():
        values = [c for v in VARIANCES if (c := fused(edge, v, v)) is not None]
        assert values[0] == fused(edge, VARIANCES[0], VARIANCES[0])
        assert abs(values[0] - published) > 5e-5
        assert np.all(np.sign(np.diff(values)) == np.sign(values[0] - published))
    # separate direct and indirect variances: follow the curve that gives the
    # published C at 1->3, solving for the indirect variance by Brent's method
    target = PUBLISHED_C[(1, 3)]
    along_curve = []
    for var_direct in VARIANCES:
        gaps = [None if (c := fused((1, 3), var_direct, v)) is None else c - target
                for v in VARIANCES]
        brackets = [k for k, (low, high) in enumerate(zip(gaps, gaps[1:]))
                    if low is not None and high is not None and low * high < 0.0]
        assert len(brackets) <= 1
        for k in brackets:
            var_indirect = optimize.brentq(lambda v: fused((1, 3), var_direct, v) - target,
                                           VARIANCES[k], VARIANCES[k + 1], xtol=1e-15)
            assert abs(fused((1, 3), var_direct, var_indirect) - target) <= 1e-12
            along_curve.append(fused((3, 1), var_direct, var_indirect))
    assert len(along_curve) >= 100
    assert max(along_curve) < PUBLISHED_C[(3, 1)] - 5e-5
    text = README.read_text(encoding="utf-8")
    assert "0.4284" in text and "0.4634" in text and "[1e-4, 0.25)" in text
