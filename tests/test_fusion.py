"""Unit tests for the Beta fusion core.

Frozen reference values were computed with a separate 50-digit
script evaluating the moment inversion, the kernel-product posterior
and the weighted sum directly; every frozen value is additionally
cross-checked here through an independent route (scipy's Beta moments,
the posterior-mean identity, or the exact closed form).
"""
import copy
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from betatrust import (
    DegeneratePosteriorError,
    InvalidVarianceError,
    RangeError,
    TrustError,
    TrustEstimate,
    combined_trust,
)
from betatrust.fusion import (
    MEAN_EPSILON,
    _checked_posterior,
    _checked_source,
    _fusion_weights,
    _shape_mean,
    combined_trust_columns,
)

# moment inversion of (0.6844, 0.01) and (0.0445, 0.01); 50-digit script
ALPHA_A_13 = 14.0984100416
BETA_A_13 = 6.5012539584
ALPHA_B_13 = 0.1447128875
BETA_B_13 = 3.1072621125
COMBINED_13 = 0.6060471220991707
W_A_13 = 0.9427056707279486
W_B_13 = -0.8795649201581424
K_13 = 21.851639


class TestMoments:
    @pytest.mark.parametrize("params, mean", [((1, 1), 0.5), ((2, 3), 0.4), ((10, 10), 0.5)])
    def test_mean(self, params, mean):
        assert _shape_mean(*params) == pytest.approx(mean, abs=1e-15)


class TestCheckedSource:
    @pytest.mark.parametrize("estimate, shapes", [
        ((0.5, 1 / 12), (1.0, 1.0)),
        ((0.5, 0.05), (2.0, 2.0)),
        ((0.4, 0.04), (2.0, 3.0)),
        ((0.6844, 0.01), (ALPHA_A_13, BETA_A_13)),
        ((0.0445, 0.01), (ALPHA_B_13, BETA_B_13)),  # a pessimistic source: alpha below 1
    ], ids=["uniform", "symmetric", "asymmetric", "reference-direct", "reference-indirect"])
    def test_inverts_the_moments(self, estimate, shapes):
        alpha, beta = _checked_source(*estimate)
        assert (alpha, beta) == pytest.approx(shapes, rel=1e-12)
        # independent confirmation: scipy's Beta has the estimate's moments
        assert tuple(stats.beta(alpha, beta).stats("mv")) == pytest.approx(estimate, rel=1e-12)

    def test_mean_clamped_at_zero(self):
        assert _shape_mean(*_checked_source(0.0, 1e-8)) == pytest.approx(MEAN_EPSILON, rel=1e-9)

    def test_mean_clamped_at_one(self):
        assert _shape_mean(*_checked_source(1.0, 1e-8)) == pytest.approx(
            1.0 - MEAN_EPSILON, rel=1e-9)

    @pytest.mark.parametrize("variance", [0.25, 0.3, 1.0])
    def test_unreachable_variance(self, variance):
        with pytest.raises(InvalidVarianceError):
            _checked_source(0.5, variance)

    # 0.25 / 1e-320 is inf; just below 2**-1024 = 0.25 * 2**-1022 the
    # shapes stay finite but a posterior built from two of them overflows
    @pytest.mark.parametrize("variance", [5e-324, 1e-320, math.nextafter(2.0**-1024, 0.0)])
    def test_variance_whose_shapes_overflow(self, variance):
        with pytest.raises(InvalidVarianceError):
            _checked_source(0.5, variance)

    def test_tiny_variance_gives_finite_shapes(self):
        # 0.5 * (0.25 / 1e-300 - 1): finite, two orders below the overflow floor
        alpha, beta = _checked_source(0.5, 1e-300)
        assert alpha == beta == pytest.approx(1.25e299, rel=1e-12)
        assert _shape_mean(alpha, beta) == 0.5

    def test_nonpositive_variance_rejected_at_construction(self):
        with pytest.raises(InvalidVarianceError):
            TrustEstimate(0.5, 0.0)
        with pytest.raises(InvalidVarianceError):
            TrustEstimate(0.5, -0.01)

    def test_mean_out_of_range(self):
        with pytest.raises(ValueError):
            TrustEstimate(1.0001, 0.01)


class TestPosterior:
    def test_uniform_pair(self):
        assert _checked_posterior(1, 1, 1, 1) == (1, 1)

    def test_shape_arithmetic(self):
        assert _checked_posterior(2, 3, 4, 5) == (5, 7)

    def test_symmetric_posterior_mean(self):
        # kernel product of Beta(2,2) with itself is Beta(3,3): mean 1/2
        posterior = _checked_posterior(2, 2, 2, 2)
        assert posterior == (3, 3)
        assert _shape_mean(*posterior) == pytest.approx(0.5, abs=1e-15)

    def test_degenerate_alpha(self):
        with pytest.raises(DegeneratePosteriorError):
            _checked_posterior(0.5, 2, 0.5, 2)

    def test_degenerate_beta(self):
        with pytest.raises(DegeneratePosteriorError):
            _checked_posterior(2, 0.4, 2, 0.6)


class TestFusionWeights:
    def test_symmetric_pair(self):
        assert _fusion_weights(2, 2, 2, 2) == pytest.approx((6.0, 2 / 3, 1 / 3), abs=1e-15)

    def test_asymmetric_pair(self):
        assert _fusion_weights(2, 3, 4, 5) == pytest.approx(
            (12.0, 5 / 12, 9 * 3 / (4 * 12)), abs=1e-15)

    @pytest.mark.parametrize("shapes", [
        (2, 2, 2, 2),
        (2, 3, 4, 5),
        (14.0984100416, 6.5012539584, 0.1447128875, 3.1072621125),
    ])
    def test_weighted_sum_identity(self, shapes):
        alpha_a, beta_a, alpha_b, beta_b = shapes
        k, w_a, w_b = _fusion_weights(*shapes)
        lhs = w_a * _shape_mean(alpha_a, beta_a) + w_b * _shape_mean(alpha_b, beta_b)
        assert lhs == pytest.approx((alpha_a + alpha_b - 1.0) / k, abs=1e-14)

    def test_negative_weight_for_alpha_below_one(self):
        k, w_a, w_b = _fusion_weights(ALPHA_A_13, BETA_A_13, ALPHA_B_13, BETA_B_13)
        assert (k, w_a, w_b) == pytest.approx((K_13, W_A_13, W_B_13), rel=1e-12)
        assert w_b < 0.0

    @pytest.mark.parametrize("means", [(0.5, 0.5), (0.3, 0.7), (0.9, 0.05)])
    def test_finite_for_huge_shapes(self, means):
        # shapes up to about 2e301: (aB + bB) * (aB - 1) overflowed in w_b
        (alpha_a, beta_a), (alpha_b, beta_b) = (_checked_source(m, 1e-300) for m in means)
        _, w_a, w_b = _fusion_weights(alpha_a, beta_a, alpha_b, beta_b)
        assert math.isfinite(w_a) and math.isfinite(w_b)
        lhs = w_a * _shape_mean(alpha_a, beta_a) + w_b * _shape_mean(alpha_b, beta_b)
        expected = combined_trust(*(TrustEstimate(m, 1e-300) for m in means))
        assert lhs == pytest.approx(expected, rel=1e-12)


class TestCombinedTrust:
    def test_symmetric_case(self):
        c = combined_trust(TrustEstimate(0.5, 0.05), TrustEstimate(0.5, 0.05))
        assert c == pytest.approx(0.5, abs=1e-14)

    def test_identical_inputs_match_doubled_shapes(self):
        estimate = TrustEstimate(0.73, 0.004)
        alpha, beta = _checked_source(0.73, 0.004)
        expected = (2 * alpha - 1) / (2 * alpha + 2 * beta - 2)
        assert combined_trust(estimate, estimate) == pytest.approx(expected, rel=1e-12)

    def test_reference_edge(self):
        c = combined_trust(TrustEstimate(0.6844, 0.01), TrustEstimate(0.0445, 0.01))
        assert c == pytest.approx(COMBINED_13, rel=1e-12)

    def test_matches_the_weighted_sum(self):
        direct = TrustEstimate(0.6844, 0.01)
        indirect = TrustEstimate(0.0445, 0.01)
        shapes = (*_checked_source(0.6844, 0.01), *_checked_source(0.0445, 0.01))
        _, w_a, w_b = _fusion_weights(*shapes)
        assert combined_trust(direct, indirect) == pytest.approx(
            w_a * 0.6844 + w_b * 0.0445, abs=1e-14
        )

    def test_role_swap_changes_weights_not_result(self):
        direct = TrustEstimate(0.6844, 0.01)
        indirect = TrustEstimate(0.0445, 0.02)
        shapes_d, shapes_i = _checked_source(0.6844, 0.01), _checked_source(0.0445, 0.02)
        assert _fusion_weights(*shapes_d, *shapes_i) != _fusion_weights(*shapes_i, *shapes_d)
        assert combined_trust(direct, indirect) == combined_trust(indirect, direct)

    def test_propagates_invalid_variance(self):
        with pytest.raises(InvalidVarianceError):
            combined_trust(TrustEstimate(0.5, 0.3), TrustEstimate(0.5, 0.05))

    def test_overflowing_posterior_rejected(self):
        # the shapes are finite, but the posterior shape sum is inf and C 0.0
        tight = TrustEstimate(0.5, 2e-309)
        with pytest.raises(InvalidVarianceError):
            combined_trust(tight, tight)

    def test_propagates_degenerate_posterior(self):
        # alpha = 0.05 each: the combined shapes would not be positive
        weak = TrustEstimate(0.1, 0.06)
        with pytest.raises(DegeneratePosteriorError):
            combined_trust(weak, weak)

    def test_near_degenerate_posterior_stays_in_unit_interval(self):
        # aA + aB - 1 is 2**-52, where the weighted sum cancels to -4.4e-16
        direct = TrustEstimate(0.4324296867870303, 0.07820908251563337)
        indirect = TrustEstimate(0.44687694450688287, 0.2114986240697817)
        alpha_a, beta_a = _checked_source(direct.mean, direct.variance)
        alpha_b, beta_b = _checked_source(indirect.mean, indirect.variance)
        assert alpha_a + alpha_b - 1.0 == 2.0**-52
        combined = combined_trust(direct, indirect)
        assert 0.0 < combined < 1.0
        assert combined == pytest.approx(2.0**-52 / (alpha_a + alpha_b + beta_a + beta_b - 2.0),
                                         rel=1e-15)

    # Estimates whose variance is at the bound (0.3 * 0.7 is 0.21 exactly), above the
    # bound of a mean clamped to 1 - 1e-6, below the overflow floor of a mean clamped to
    # 1e-6 and of an unclamped one, and two exact reals whose quotient with the bound has
    # no float, with their InvalidVarianceError and the numbers its text names (the
    # variance, the bound when exceeded, and a clamped mean with its clamp)
    BAD_SOURCES = {
        "at-bound": (TrustEstimate(0.3, 0.21),
                     "variance 0.21 >= mean*(1-mean) = 0.21: "
                     "no Beta distribution has these moments",
                     (0.21, 0.21)),
        "clamped-bound": (TrustEstimate(1.0, 0.01),
                          "variance 0.01 >= mean*(1-mean) = 9.999990000287556e-07 "
                          "of the mean 1.0 clamped to 0.999999: "
                          "no Beta distribution has these moments",
                          (0.01, 9.999990000287556e-07, 1.0, 0.999999)),
        "clamped-overflow": (TrustEstimate(0.0, 1e-320),
                             "variance 1e-320 < mean*(1-mean)*2**-1022 "
                             "of the mean 0.0 clamped to 1e-06: the Beta shapes would overflow",
                             (1e-320, 0.0, 1e-06)),
        "overflow": (TrustEstimate(0.5, 1e-309),
                     "variance 1e-309 < mean*(1-mean)*2**-1022: "
                     "the Beta shapes would overflow",
                     (1e-309,)),
        "huge-int": (TrustEstimate(0.5, 10**400),
                     f"variance {10**400} >= mean*(1-mean) = 0.25: "
                     "no Beta distribution has these moments",
                     (10**400, 0.25)),
        "tiny-fraction": (TrustEstimate(0.5, Fraction(1, 10**400)),
                          f"variance {Fraction(1, 10**400)!r} < mean*(1-mean)*2**-1022: "
                          "the Beta shapes would overflow",
                          (Fraction(1, 10**400),)),
    }

    @pytest.mark.parametrize("source", ["direct", "indirect"])
    @pytest.mark.parametrize("case", sorted(BAD_SOURCES))
    def test_variance_error_message(self, case, source):
        bad, message, _ = self.BAD_SOURCES[case]
        good = TrustEstimate(0.6844, 0.01)
        args = (bad, good) if source == "direct" else (good, bad)
        with pytest.raises(InvalidVarianceError) as info:
            combined_trust(*args)
        assert str(info.value) == message

    @pytest.mark.parametrize("first, second", [("at-bound", "overflow"),
                                               ("overflow", "at-bound")])
    def test_direct_source_is_checked_first(self, first, second):
        with pytest.raises(InvalidVarianceError) as info:
            combined_trust(self.BAD_SOURCES[first][0], self.BAD_SOURCES[second][0])
        assert str(info.value) == self.BAD_SOURCES[first][1]

    @pytest.mark.parametrize("case", sorted(BAD_SOURCES))
    def test_checked_source_raises_the_same_message(self, case):
        bad, message, operands = self.BAD_SOURCES[case]
        with pytest.raises(InvalidVarianceError) as info:
            _checked_source(bad.mean, bad.variance)
        assert_deferred_text(info.value, message, operands)

    # posterior shapes of which both, beta only or alpha only are not positive, with the
    # DegeneratePosteriorError text that names them
    DEGENERATE = {
        "low-means": (TrustEstimate(0.1, 0.06), TrustEstimate(0.1, 0.06),
                      (-0.8999999999999999, -0.09999999999999964),
                      "posterior shapes (-0.8999999999999999, -0.09999999999999964) "
                      "are not both positive"),
        "high-means": (TrustEstimate(0.9, 0.06), TrustEstimate(0.9, 0.06),
                       (-0.10000000000000042, -0.9),
                       "posterior shapes (-0.10000000000000042, -0.9) are not both positive"),
        "direct-strong": (TrustEstimate(0.9, 0.01), TrustEstimate(0.5, 0.2),
                          (6.324999999999998, -0.0750000000000004),
                          "posterior shapes (6.324999999999998, -0.0750000000000004) "
                          "are not both positive"),
        "indirect-strong": (TrustEstimate(0.5, 0.2), TrustEstimate(0.9, 0.01),
                            (6.324999999999998, -0.0750000000000004),
                            "posterior shapes (6.324999999999998, -0.0750000000000004) "
                            "are not both positive"),
        "direct-weak": (TrustEstimate(0.1, 0.01), TrustEstimate(0.5, 0.2),
                        (-0.07499999999999996, 6.325),
                        "posterior shapes (-0.07499999999999996, 6.325) are not both positive"),
        "indirect-weak": (TrustEstimate(0.5, 0.2), TrustEstimate(0.1, 0.01),
                          (-0.07499999999999996, 6.325),
                          "posterior shapes (-0.07499999999999996, 6.325) are not both positive"),
    }

    @pytest.mark.parametrize("case", list(DEGENERATE))
    def test_degenerate_posterior_message(self, case):
        direct, indirect, shapes, message = self.DEGENERATE[case]
        with pytest.raises(DegeneratePosteriorError) as info:
            combined_trust(direct, indirect)
        assert_deferred_text(info.value, message, shapes)

    def test_deterministic(self):
        a = TrustEstimate(0.3141592653589793, 0.0123456789)
        b = TrustEstimate(0.2718281828459045, 0.0098765432)
        assert combined_trust(a, b) == combined_trust(a, b)


def test_combined_trust_columns_match_scalar():
    """Bit-identical to combined_trust, and NaN exactly where it raises."""
    rng = np.random.default_rng(12)
    means = np.concatenate(([0.0, 1.0, 1e-6, 0.5], rng.random(400)))
    estimates = []
    for mean in means.tolist():
        m = min(max(mean, MEAN_EPSILON), 1.0 - MEAN_EPSILON)
        bound = m * (1.0 - m)
        for variance in (bound, math.nextafter(bound, 0.0), bound / 3.0, 0.01,
                         bound * 2.0**-1022, math.nextafter(bound * 2.0**-1022, 0.0)):
            if variance > 0.0:
                estimates.append(TrustEstimate(mean, variance))
    direct = [estimates[k] for k in rng.integers(len(estimates), size=5000)]
    indirect = [estimates[k] for k in rng.integers(len(estimates), size=5000)]
    columns = combined_trust_columns(*(
        np.array([getattr(e, field) for e in side])
        for side in (direct, indirect) for field in ("mean", "variance")
    ))
    failures = 0
    for d, i, value in zip(direct, indirect, columns.tolist()):
        try:
            expected = combined_trust(d, i)
        except TrustError:
            failures += 1
            assert math.isnan(value)
        else:
            assert value == expected
    assert 0 < failures < len(direct)


def assert_deferred_text(error, message, operands):
    """error holds a format string and operands, prints message, and survives pickle and copy."""
    assert (error.args[1:], str(error)) == (operands, message)
    assert [type(value) for value in error.args[1:]] == [type(value) for value in operands]
    for twin in (pickle.loads(pickle.dumps(error)), copy.copy(error), copy.deepcopy(error)):
        assert type(twin) is type(error)
        assert (twin.args, str(twin)) == (error.args, message)


@pytest.mark.parametrize("error", [TrustError("{0} and {} and %r and 100 %"),
                                   InvalidVarianceError("{0} and {} and %r and 100 %")])
def test_one_argument_error_prints_its_text_unchanged(error):
    assert str(error) == error.args[0]
    assert str(pickle.loads(pickle.dumps(error))) == str(copy.copy(error)) == error.args[0]


def test_range_error_text_with_format_fields_prints_unchanged():
    with pytest.raises(RangeError) as info:
        TrustEstimate("{0} %s")
    assert str(info.value) == "mean must lie in [0, 1], got '{0} %s'"


def test_range_error_is_a_trust_error_and_a_value_error():
    with pytest.raises(RangeError) as info:
        TrustEstimate(1.5)
    assert isinstance(info.value, TrustError)
    assert isinstance(info.value, ValueError)
