"""combined_trust against exact arithmetic.

The oracle repeats combined_trust's clamp and formula in fractions.Fraction
on the same float inputs, so the two differ only by the rounding of each
float operation.  No fixed number of ulps bounds that difference, because
two subtractions cancel: s - 1 for each posterior shape, where s, the sum
of the two source shapes, can lie as close to 1 as the inputs put it; and
bound / variance - 1 for each source, as its variance nears the bound
m * (1 - m).  The tests assert a first-order bound that grows with both
(posterior_errors derives it), and Hypothesis aims at each cancellation.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betatrust import TrustEstimate, combined_trust
from betatrust.errors import DegeneratePosteriorError, InvalidVarianceError
from betatrust.fusion import _MEAN_CEILING, MEAN_EPSILON

U = 2.0**-53  # unit roundoff: each float operation is off by a relative U at most


def clamped(mean: float) -> float:
    return min(max(mean, MEAN_EPSILON), _MEAN_CEILING)


def exact_sources(direct: TrustEstimate, indirect: TrustEstimate):
    """(alpha, beta, gap) of each estimate in exact arithmetic, gap = bound / variance - 1."""
    sources = []
    for estimate in (direct, indirect):
        m = Fraction(clamped(estimate.mean))
        gap = m * (1 - m) / Fraction(estimate.variance) - 1
        sources.append((m * gap, gap * (1 - m), gap))  # beta = alpha * (1 - m) / m
    return sources


def exact_combined_trust(direct: TrustEstimate, indirect: TrustEstimate) -> Fraction | None:
    """combined_trust in exact arithmetic; None where a check of combined_trust's would fail."""
    (alpha_a, beta_a, gap_a), (alpha_b, beta_b, gap_b) = exact_sources(direct, indirect)
    alpha, beta = alpha_a + alpha_b - 1, beta_a + beta_b - 1
    if min(gap_a, gap_b, alpha, beta) <= 0:
        return None
    return alpha / (alpha + beta)


def posterior_errors(sources) -> tuple[float, float]:
    """Bounds on the absolute rounding errors of combined_trust's two posterior shapes.

    The float bound m * (1 - m) is off by 2U, its quotient by the
    variance by 3U, and subtracting 1 makes that a relative U(3/gap + 4)
    on gap.  alpha = m * gap adds U, and beta = alpha * (1 - m) / m 3U
    more, so a source shape is off by e = U(3/gap + 8) at most.  A
    posterior shape s - 1, with s the sum of the sources' shapes x_A and
    x_B, is then off by e_A x_A + e_B x_B + U s + U |s - 1|: relative to
    s - 1, that grows as s / (s - 1).  Terms of order U**2 are dropped.
    """
    (alpha_a, beta_a, gap_a), (alpha_b, beta_b, gap_b) = sources
    e_a, e_b = (U * (3.0 / float(gap) + 8.0) for gap in (gap_a, gap_b))
    errors = []
    for x_a, x_b in ((alpha_a, alpha_b), (beta_a, beta_b)):
        s = float(x_a + x_b)
        errors.append(e_a * float(x_a) + e_b * float(x_b) + U * s + U * abs(s - 1.0))
    return errors[0], errors[1]


def relative_tolerance(alpha: Fraction, beta: Fraction, errors) -> float:
    """Bound on the relative error of C = alpha / (alpha + beta) computed from shapes off by
    errors: alpha by x, the sum by y, and the sum, the quotient and _shape_mean's step below 1
    by U each."""
    x, y = errors[0] / float(alpha), (errors[0] + errors[1]) / float(alpha + beta)
    return (1.0 + x) * (1.0 + U) ** 2 / ((1.0 - y) * (1.0 - U)) - 1.0 if y < 1.0 else math.inf


def check_against_the_oracle(direct: TrustEstimate, indirect: TrustEstimate) -> Fraction | None:
    """Assert that combined_trust is within the bound of the exact value, and fails only where
    the exact posterior lies within the rounding error of degenerate; the error in ulps."""
    sources = exact_sources(direct, indirect)
    assert min(gap for _, _, gap in sources) > 0  # callers pass only variances below the bound
    (alpha_a, beta_a, _), (alpha_b, beta_b, _) = sources
    alpha, beta = alpha_a + alpha_b - 1, beta_a + beta_b - 1
    errors = posterior_errors(sources)
    try:
        combined = combined_trust(direct, indirect)
    except DegeneratePosteriorError:
        assert alpha <= errors[0] or beta <= errors[1]
        return None
    assert alpha >= -errors[0] and beta >= -errors[1]
    exact = exact_combined_trust(direct, indirect)
    if exact is None:  # degenerate in exact arithmetic, but not beyond the error
        return None
    error = abs(Fraction(combined) - exact)
    assert error / exact <= relative_tolerance(alpha, beta, errors)
    return error / Fraction(math.ulp(float(exact)))


def test_the_oracle_is_exact_where_the_floats_are():
    # dyadic moments: Beta(1.5, 1.5) and Beta(1.25, 3.75), whose every float step is exact
    direct, indirect = TrustEstimate(0.5, 1 / 16), TrustEstimate(0.25, 1 / 32)
    assert exact_sources(direct, indirect) == [(1.5, 1.5, 3), (1.25, 3.75, 5)]
    assert exact_combined_trust(direct, indirect) == Fraction(7, 24)  # 1.75 / (1.75 + 4.25)
    assert combined_trust(direct, indirect) == 7 / 24
    assert exact_combined_trust(TrustEstimate(0.05, 0.04), TrustEstimate(0.05, 0.04)) is None
    assert exact_combined_trust(TrustEstimate(0.5, 0.25), TrustEstimate(0.5)) is None


def default_variance_pairs(count: int):
    """The first count of the 20,000 seeded mean pairs behind fusion's stated accuracy."""
    return np.random.Generator(np.random.PCG64(7)).random((20_000, 2))[:count].tolist()


def test_default_variance_pairs_are_within_the_bound():
    fused = 0
    for direct_mean, indirect_mean in default_variance_pairs(1_000):
        direct, indirect = TrustEstimate(direct_mean), TrustEstimate(indirect_mean)
        if min(gap for _, _, gap in exact_sources(direct, indirect)) <= 0:
            with pytest.raises(InvalidVarianceError):  # a mean too near 0 or 1 for the variance
                combined_trust(direct, indirect)
            continue
        fused += check_against_the_oracle(direct, indirect) is not None
    assert fused > 900


def test_the_worst_default_variance_pair_is_105_ulps_off():
    # pair 17,570 of the 20,000, the worst of the 18,870 that fuse: aA + aB - 1 = 0.0167
    direct_mean, indirect_mean = default_variance_pairs(20_000)[17_570]
    ulps = check_against_the_oracle(TrustEstimate(direct_mean), TrustEstimate(indirect_mean))
    assert round(ulps) == 105


def with_shape(mean: float, shape: float, alpha: bool) -> TrustEstimate:
    """The estimate of mean whose moment inversion gives alpha (or beta) close to shape."""
    m = clamped(mean)
    shape_alpha = shape if alpha else shape * m / (1.0 - m)
    return TrustEstimate(mean, m * m * (1.0 - m) / (shape_alpha + m))


# a source shape in [2**-20, 1 - 2**-20], and how far the two sources' sum lies from 1
first_shapes = st.floats(min_value=2.0**-20, max_value=1.0 - 2.0**-20)
offsets = st.builds(lambda sign, k: sign * 2.0**-k, st.sampled_from((-1.0, 1.0)),
                    st.integers(min_value=1, max_value=60))


@settings(max_examples=60, deadline=None)
@given(first=first_shapes, offset=offsets, alpha=st.booleans(),
       means=st.tuples(*[st.floats(min_value=0.0, max_value=0.5)] * 2))
def test_near_degenerate_posteriors_are_within_the_bound(first, offset, alpha, means):
    # the sources' alphas (or betas) sum to 1 + offset; means at most 1/2 (at least 1/2 for
    # the betas) keep the other posterior shape no smaller than the one aimed at
    second = max(1.0 - first + offset, 2.0**-21)
    direct, indirect = (with_shape(mean if alpha else 1.0 - mean, shape, alpha)
                        for mean, shape in zip(means, (first, second)))
    check_against_the_oracle(direct, indirect)


@settings(max_examples=60, deadline=None)
@given(mean=st.floats(min_value=0.0, max_value=1.0), k=st.integers(min_value=1, max_value=50),
       other=st.floats(min_value=0.0, max_value=1.0),
       fraction=st.floats(min_value=1e-8, max_value=0.5), swap=st.booleans())
def test_variances_near_the_bound_are_within_the_bound(mean, k, other, fraction, swap):
    # one variance 2**-k below its bound, relatively: the gap cancels as k grows
    m, m_other = clamped(mean), clamped(other)
    near = TrustEstimate(mean, m * (1.0 - m) * (1.0 - 2.0**-k))
    far = TrustEstimate(other, fraction * m_other * (1.0 - m_other))
    check_against_the_oracle(*((far, near) if swap else (near, far)))
