"""Tests for the decision chain: risk values, short-circuit order, updates."""
import pytest
from hypothesis import given
from hypothesis import strategies as st

from betatrust import Decision, RiskAppetite, TrustEstimate, evaluate_request
from betatrust.decision import average_combiner, risk_value

# reference edge 1->3: combined and risk under variance 0.01 (50-digit script)
COMBINED_13 = 0.6060471220991707
RISK_13 = 0.10875287790082932

# aA + aB - 1 is 2**-52: the posterior mean is about 7e-16
NEAR_DEGENERATE_DIRECT = TrustEstimate(0.4324296867870303, 0.07820908251563337)
NEAR_DEGENERATE_INDIRECT = TrustEstimate(0.44687694450688287, 0.2114986240697817)

finite = {"allow_nan": False, "allow_infinity": False}
unit = st.floats(min_value=0.0, max_value=1.0, **finite)


class TestRiskValue:
    @pytest.mark.parametrize(
        "required, achieved, expected",
        [
            (0.7148, 0.4284, 0.2864),
            (0.5846, 0.4634, 0.1212),
            (0.7148, 0.4693, 0.2455),
            (0.5846, 0.4928, 0.0918),
        ],
    )
    def test_reference_table_risks(self, required, achieved, expected):
        assert risk_value(required, achieved) == pytest.approx(expected, abs=1e-12)

    def test_zero_when_achieved_covers_requirement(self):
        assert risk_value(0.4, 0.7) == 0.0
        assert risk_value(0.4, 0.4) == 0.0

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            risk_value(1.2, 0.5)
        with pytest.raises(ValueError):
            risk_value(0.5, -0.1)

    @given(unit, unit, unit)
    def test_monotonicity(self, required, low, high):
        lo, hi = sorted((low, high))
        assert risk_value(required, hi) <= risk_value(required, lo)
        r_lo, r_hi = sorted((low, high))
        assert risk_value(r_lo, required) <= risk_value(r_hi, required)


class TestEvaluateRequest:
    def test_accept_direct_reference_row(self):
        record = evaluate_request(0.4546, TrustEstimate(0.5133), TrustEstimate(0.7578))
        assert record.decision is Decision.ACCEPT_DIRECT
        assert record.combined is None
        assert record.risk == 0.0

    def test_accept_indirect_reference_row(self):
        record = evaluate_request(0.5383, TrustEstimate(0.1610), TrustEstimate(0.5953))
        assert record.decision is Decision.ACCEPT_INDIRECT
        assert record.combined is None
        assert record.risk == 0.0

    def test_combined_step_with_full_appetite(self):
        record = evaluate_request(
            0.7148,
            TrustEstimate(0.6844, 0.01),
            TrustEstimate(0.0445, 0.01),
            RiskAppetite(1.0),
        )
        assert record.decision is Decision.ACCEPT_WITH_RISK
        assert record.combined == pytest.approx(COMBINED_13, rel=1e-12)
        assert record.risk == pytest.approx(RISK_13, rel=1e-12)

    def test_combined_step_default_appetite_declines(self):
        record = evaluate_request(
            0.7148, TrustEstimate(0.6844, 0.01), TrustEstimate(0.0445, 0.01)
        )
        assert record.decision is Decision.DECLINE
        assert record.risk > 0.0

    def test_appetite_boundary_is_inclusive(self):
        direct = TrustEstimate(0.6844, 0.01)
        indirect = TrustEstimate(0.0445, 0.01)
        at_risk = evaluate_request(0.7148, direct, indirect, RiskAppetite(RISK_13))
        assert at_risk.decision is Decision.ACCEPT_WITH_RISK
        below = evaluate_request(0.7148, direct, indirect, RiskAppetite(0.9 * RISK_13))
        assert below.decision is Decision.DECLINE

    def test_accept_combined_when_posterior_sharpens_past_threshold(self):
        # both sources at 0.9 fuse to ~0.957, clearing a 0.93 requirement
        record = evaluate_request(0.93, TrustEstimate(0.9), TrustEstimate(0.9))
        assert record.decision is Decision.ACCEPT_COMBINED
        assert record.risk == 0.0
        assert record.combined is not None and record.combined >= 0.93

    def test_near_degenerate_posterior_declines(self):
        record = evaluate_request(0.9, NEAR_DEGENERATE_DIRECT, NEAR_DEGENERATE_INDIRECT)
        assert record.decision is Decision.DECLINE
        assert 0.0 < record.combined < 1.0
        assert record.risk == 0.9 - record.combined

    def test_diagonal_convention_consistency(self):
        record = evaluate_request(0.0, TrustEstimate(1.0), TrustEstimate(1.0))
        assert record.decision is Decision.ACCEPT_DIRECT

    def test_alternative_combiner(self):
        record = evaluate_request(
            0.7148,
            TrustEstimate(0.6844),
            TrustEstimate(0.0445),
            combiner=average_combiner,
        )
        assert record.combined == pytest.approx((0.6844 + 0.0445) / 2, abs=1e-15)

    @given(unit, unit, unit)
    def test_short_circuit_soundness(self, required, a, b):
        record = evaluate_request(
            required, TrustEstimate(a), TrustEstimate(b), combiner=average_combiner
        )
        if a >= required:
            assert record.decision is Decision.ACCEPT_DIRECT
        elif b >= required:
            assert record.decision is Decision.ACCEPT_INDIRECT
        else:
            assert record.decision.reached_combined
        assert (record.combined is None) == (not record.decision.reached_combined)

    @given(unit, unit, unit, unit)
    def test_appetite_boundary_property(self, required, a, b, appetite):
        record = evaluate_request(
            required,
            TrustEstimate(a),
            TrustEstimate(b),
            RiskAppetite(appetite),
            combiner=average_combiner,
        )
        if record.decision is Decision.ACCEPT_WITH_RISK:
            assert 0.0 < record.risk <= appetite
        if record.decision is Decision.DECLINE:
            assert record.risk > appetite
        if record.combined is not None:
            assert record.risk == max(0.0, required - record.combined)
        else:
            assert record.risk == 0.0


class TestReevaluationWithNewEstimates:
    """Trust evolution is re-formation: a fresh evaluate_request on the
    same requirement and the new estimates."""

    def test_direct_update_flips_to_accept_direct(self):
        old = evaluate_request(0.5383, TrustEstimate(0.1610), TrustEstimate(0.5953))
        assert old.decision is Decision.ACCEPT_INDIRECT
        new = evaluate_request(0.5383, TrustEstimate(0.60), TrustEstimate(0.5953))
        assert new.decision is Decision.ACCEPT_DIRECT

    def test_idempotent_with_same_estimates(self):
        old = evaluate_request(0.7148, TrustEstimate(0.6844), TrustEstimate(0.0445))
        again = evaluate_request(0.7148, TrustEstimate(0.6844), TrustEstimate(0.0445))
        assert again == old

    def test_rerun_follows_short_circuit_order(self):
        old = evaluate_request(0.4546, TrustEstimate(0.5133), TrustEstimate(0.7578))
        assert old.decision is Decision.ACCEPT_DIRECT
        new = evaluate_request(0.4546, TrustEstimate(0.40), TrustEstimate(0.7578))
        assert new.decision is Decision.ACCEPT_INDIRECT


def test_appetite_range_validated():
    with pytest.raises(ValueError):
        RiskAppetite(1.5)
    with pytest.raises(ValueError):
        RiskAppetite(-0.1)
