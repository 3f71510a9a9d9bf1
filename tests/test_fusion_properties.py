"""Property-based checks of the fusion invariants.

The quadrature oracles here are deliberately independent of the package:
scipy's adaptive QUADPACK integrator for the density normalisation and
the kernel-product posterior mean, exercised over the regimes (including
integrable endpoint singularities) that a fixed uniform grid cannot
resolve.
"""
from __future__ import annotations

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from betatrust import TrustError, TrustEstimate, combined_trust
from betatrust.fusion import (
    BetaParams,
    beta_mean,
    beta_pdf,
    beta_variance,
    fusion_weights,
    moments_to_beta,
    posterior_params,
)

finite = {"allow_nan": False, "allow_infinity": False}

means = st.floats(min_value=0.001, max_value=0.999, **finite)
variance_fractions = st.floats(min_value=0.001, max_value=0.999, **finite)
shapes = st.floats(min_value=0.5, max_value=50.0, **finite)


@st.composite
def trust_estimates(draw):
    mean = draw(means)
    fraction = draw(variance_fractions)
    return TrustEstimate(mean, fraction * mean * (1.0 - mean))


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
    alpha = 1.0 - moments_to_beta(estimate).alpha + ulps * 2.0**-52
    return estimate_with_shapes(alpha, draw(wide_shapes))


def check_combined_is_posterior_mean(direct, indirect):
    """0 < C < 1 and C is the posterior mean, wherever the shapes are accepted.

    The posterior beta may lie below 2**-53 of its alpha (a near-bound
    source beside one with beta 1 gets there); C must stay below 1 there
    too.
    """
    try:
        posterior = posterior_params(moments_to_beta(direct), moments_to_beta(indirect))
    except TrustError:
        assume(False)
    combined = combined_trust(direct, indirect)
    assert 0.0 < combined < 1.0
    assert combined == beta_mean(posterior)


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
    params = moments_to_beta(estimate)
    assert params.alpha > 0.0 and params.beta > 0.0
    assert beta_mean(params) == pytest.approx(estimate.mean, rel=1e-10)
    assert beta_variance(params) == pytest.approx(estimate.variance, rel=1e-10)


@given(trust_estimates(), trust_estimates())
def test_weighted_sum_identity(a, b):
    params_a = moments_to_beta(a)
    params_b = moments_to_beta(b)
    k = params_a.alpha + params_a.beta + params_b.alpha + params_b.beta - 2.0
    assume(k > 1e-6)
    weights = fusion_weights(params_a, params_b)
    lhs = weights.w_a * beta_mean(params_a) + weights.w_b * beta_mean(params_b)
    rhs = (params_a.alpha + params_b.alpha - 1.0) / weights.k
    assert abs(lhs - rhs) <= 1e-12


@given(trust_estimates(), trust_estimates())
def test_combined_trust_equals_posterior_mean_and_stays_in_unit_interval(a, b):
    params_a = moments_to_beta(a)
    params_b = moments_to_beta(b)
    assume(params_a.alpha + params_b.alpha > 1.001)
    assume(params_a.beta + params_b.beta > 1.001)
    combined = combined_trust(a, b)
    posterior = posterior_params(params_a, params_b)
    assert 0.0 < combined < 1.0
    assert combined == pytest.approx(beta_mean(posterior), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(shapes, shapes)
def test_pdf_normalisation(alpha, beta):
    params = BetaParams(alpha, beta)
    total, _ = integrate.quad(lambda x: beta_pdf(params, x), 0.0, 1.0, limit=200)
    assert total == pytest.approx(1.0, abs=1e-6)


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
    prior = BetaParams(aa, ba)
    likelihood = BetaParams(ab, bb)
    assume(aa + ab - 1.0 > 0.1 and ba + bb - 1.0 > 0.1)
    posterior = posterior_params(prior, likelihood)

    def kernel(x: float, bump: float = 0.0) -> float:
        return math.exp(
            (aa + ab - 2.0 + bump) * math.log(x) + (ba + bb - 2.0) * math.log1p(-x)
        )

    mass, _ = integrate.quad(kernel, 0.0, 1.0, limit=300)
    first_moment, _ = integrate.quad(kernel, 0.0, 1.0, args=(1.0,), limit=300)
    assert first_moment / mass == pytest.approx(beta_mean(posterior), abs=1e-6)


@given(trust_estimates())
def test_identical_inputs_double_the_shapes(estimate):
    params = moments_to_beta(estimate)
    assume(2.0 * params.alpha > 1.001 and 2.0 * params.beta > 1.001)
    expected = beta_mean(BetaParams(2.0 * params.alpha - 1.0, 2.0 * params.beta - 1.0))
    assert combined_trust(estimate, estimate) == pytest.approx(expected, rel=1e-12)


@given(st.floats(min_value=0.0, max_value=1.0, **finite))
def test_pdf_uniform_is_one_everywhere(x):
    assert beta_pdf(BetaParams(1, 1), x) == pytest.approx(1.0, abs=1e-12)
