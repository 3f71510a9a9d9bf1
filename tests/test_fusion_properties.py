"""Property-based checks of the fusion invariants.

The oracles here are deliberately independent of the package: scipy's
Beta moments for the moment inversion, and scipy's adaptive QUADPACK
integrator for the kernel-product posterior mean, exercised over the
regimes (including integrable endpoint singularities) that a fixed
uniform grid cannot resolve.
"""
from __future__ import annotations

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from betatrust import TrustError, TrustEstimate, combined_trust
from betatrust.fusion import (
    _checked_posterior,
    _checked_source,
    _fusion_weights,
    _posterior_shapes,
    _shape_mean,
)

finite = {"allow_nan": False, "allow_infinity": False}

means = st.floats(min_value=0.001, max_value=0.999, **finite)
variance_fractions = st.floats(min_value=0.001, max_value=0.999, **finite)


@st.composite
def trust_estimates(draw):
    mean = draw(means)
    fraction = draw(variance_fractions)
    return TrustEstimate(mean, fraction * mean * (1.0 - mean))


def shapes_of(estimate: TrustEstimate) -> tuple[float, float]:
    return _checked_source(estimate.mean, estimate.variance)


def estimate_with_shapes(alpha: float, beta: float) -> TrustEstimate:
    """The estimate whose moment inversion gives Beta(alpha, beta)."""
    total = alpha + beta
    return TrustEstimate(alpha / total, alpha * beta / (total * total * (total + 1.0)))


# variances log-uniform over every positive double below 1, down to
# 2**-1074 = 5e-324
any_variance_estimates = st.builds(
    TrustEstimate,
    st.floats(min_value=0.0, max_value=1.0),
    st.builds(
        math.ldexp,
        st.floats(min_value=0.5, max_value=1.0, exclude_max=True),
        st.integers(min_value=-1073, max_value=0),
    ),
)
wide_shapes = st.floats(min_value=1.0, max_value=50.0, **finite)


@st.composite
def small_alpha_estimates(draw):
    """Estimates whose Beta alpha lies in (0, 1), so a complement exists."""
    alpha = draw(st.floats(min_value=1e-3, max_value=0.999, **finite))
    beta = draw(st.floats(min_value=1e-2, max_value=50.0, **finite))
    return estimate_with_shapes(alpha, beta)


@st.composite
def near_bound_estimates(draw):
    """Estimates whose variance approaches the Beta bound m(1 - m) from below."""
    mean = draw(means)
    shortfall = draw(st.floats(min_value=1e-15, max_value=1e-2, **finite))
    return TrustEstimate(mean, (1.0 - shortfall) * mean * (1.0 - mean))


@st.composite
def complements(draw, estimate):
    """An estimate whose alpha is 1 - alpha(estimate) plus a few ulps.

    Paired with the estimate it drives the posterior alpha aA + aB - 1
    towards 0 from above, where the weighted sum cancels.  Its beta of
    at least 1 keeps the posterior beta positive.
    """
    ulps = draw(st.integers(min_value=0, max_value=1 << 30))
    alpha = 1.0 - shapes_of(estimate)[0] + ulps * 2.0**-52
    return estimate_with_shapes(alpha, draw(wide_shapes))


def check_combined_is_posterior_mean(direct, indirect):
    """0 < C < 1 and C is the posterior mean, wherever the shapes are accepted.

    The posterior beta may lie below 2**-53 of its alpha (a near-bound
    source beside one with beta 1 gets there); C must stay below 1 there
    too.
    """
    try:
        posterior = _checked_posterior(*shapes_of(direct), *shapes_of(indirect))
    except TrustError:
        assume(False)
    combined = combined_trust(direct, indirect)
    assert 0.0 < combined < 1.0
    assert combined == _shape_mean(*posterior)


@given(st.data())
def test_combined_trust_as_posterior_alpha_vanishes(data):
    direct = data.draw(small_alpha_estimates())
    check_combined_is_posterior_mean(direct, data.draw(complements(direct)))


@st.composite
def near_bound_pairs(draw):
    """A near-bound estimate, and a wide one or its complement beside it."""
    near = draw(near_bound_estimates())
    wide = st.builds(estimate_with_shapes, wide_shapes, wide_shapes)
    return near, draw(st.one_of(wide, complements(near)))


@given(near_bound_pairs())
# the quotient alpha / (alpha + beta) of this posterior rounds to 1.0
@example((TrustEstimate(0.7617555222930261, 0.18148404654910488),
          TrustEstimate(0.9580254720477267, 0.001619912644577242)))
def test_combined_trust_near_variance_bound(pair):
    check_combined_is_posterior_mean(*pair)


@given(any_variance_estimates, any_variance_estimates)
def test_combined_trust_total_over_all_variances(direct, indirect):
    """Any positive variance either raises TrustError or gives 0 < C < 1."""
    try:
        combined = combined_trust(direct, indirect)
    except TrustError:
        return
    assert math.isfinite(combined)
    assert 0.0 < combined < 1.0


@given(trust_estimates())
def test_moment_round_trip(estimate):
    alpha, beta = shapes_of(estimate)
    assert alpha > 0.0 and beta > 0.0
    mean, variance = stats.beta(alpha, beta).stats("mv")
    assert mean == pytest.approx(estimate.mean, rel=1e-10)
    assert variance == pytest.approx(estimate.variance, rel=1e-10)


@given(trust_estimates(), trust_estimates())
def test_weighted_sum_identity(a, b):
    alpha_a, beta_a = shapes_of(a)
    alpha_b, beta_b = shapes_of(b)
    # the posterior's shape sum k, which _fusion_weights divides by
    assume(sum(_posterior_shapes(alpha_a, beta_a, alpha_b, beta_b)) > 1e-6)
    k, w_a, w_b = _fusion_weights(alpha_a, beta_a, alpha_b, beta_b)
    lhs = w_a * _shape_mean(alpha_a, beta_a) + w_b * _shape_mean(alpha_b, beta_b)
    assert abs(lhs - (alpha_a + alpha_b - 1.0) / k) <= 1e-12


@given(trust_estimates(), trust_estimates())
def test_combined_trust_equals_posterior_mean_and_stays_in_unit_interval(a, b):
    alpha_a, beta_a = shapes_of(a)
    alpha_b, beta_b = shapes_of(b)
    assume(alpha_a + alpha_b > 1.001)
    assume(beta_a + beta_b > 1.001)
    combined = combined_trust(a, b)
    assert 0.0 < combined < 1.0
    posterior_mean = (alpha_a + alpha_b - 1.0) / (alpha_a + beta_a + alpha_b + beta_b - 2.0)
    assert combined == pytest.approx(posterior_mean, abs=1e-12)


# QAGS reports slow extrapolation near the strongest singularities; the
# accuracy assertion below is what actually guards the result
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.55, max_value=3.0, **finite),
    st.floats(min_value=0.55, max_value=3.0, **finite),
    st.floats(min_value=0.55, max_value=3.0, **finite),
    st.floats(min_value=0.55, max_value=3.0, **finite),
)
def test_conjugacy_small_shapes_adaptive_quadrature(aa, ba, ab, bb):
    """Kernel-product means in the singular-exponent regime.

    Posterior shapes down to 0.1 put an integrable singularity at an
    endpoint; the adaptive integrator handles what a uniform grid
    cannot, covering the pairs the grid-based acceptance check skips.
    """
    assume(aa + ab - 1.0 > 0.1 and ba + bb - 1.0 > 0.1)
    posterior = _checked_posterior(aa, ba, ab, bb)

    def kernel(x: float, bump: float = 0.0) -> float:
        return math.exp(
            (aa + ab - 2.0 + bump) * math.log(x) + (ba + bb - 2.0) * math.log1p(-x)
        )

    mass, _ = integrate.quad(kernel, 0.0, 1.0, limit=300)
    first_moment, _ = integrate.quad(kernel, 0.0, 1.0, args=(1.0,), limit=300)
    assert first_moment / mass == pytest.approx(_shape_mean(*posterior), abs=1e-6)


@given(trust_estimates())
def test_identical_inputs_double_the_shapes(estimate):
    alpha, beta = shapes_of(estimate)
    assume(2.0 * alpha > 1.001 and 2.0 * beta > 1.001)
    expected = _shape_mean(2.0 * alpha - 1.0, 2.0 * beta - 1.0)
    assert combined_trust(estimate, estimate) == pytest.approx(expected, rel=1e-12)

