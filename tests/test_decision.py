"""Tests for the decision chain: risk values, short-circuit order, updates."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from betatrust import (
    Decision,
    Network,
    RiskAppetite,
    TrustError,
    TrustEstimate,
    evaluate_request,
    run_assessment,
)
from betatrust.decision import TrustRecord, average_combiner

# reference edge 1->3: combined and risk under variance 0.01 (50-digit script)
COMBINED_13 = 0.6060471220991707
RISK_13 = 0.10875287790082932

# aA + aB - 1 is 2**-52: the posterior mean is about 7e-16
NEAR_DEGENERATE_DIRECT = TrustEstimate(0.4324296867870303, 0.07820908251563337)
NEAR_DEGENERATE_INDIRECT = TrustEstimate(0.44687694450688287, 0.2114986240697817)

finite = {"allow_nan": False, "allow_infinity": False}
unit = st.floats(min_value=0.0, max_value=1.0, **finite)


def one_edge_network(required):
    """Edge 1 -> 2 with requirement required, whose A and B (both 0) reach C unless it is 0."""
    return Network(node_count=2, src=[1], dst=[2], required=[required],
                   direct_mean=[0.0], direct_variance=[0.01],
                   indirect_mean=[0.0], indirect_variance=[0.01], max_risk=[0.0, 0.0])


def live_risks(required, achieved):
    """R = max(0, T - C) from both of its copies: evaluate_request, and
    run_assessment on one edge, each with a combiner returning C = achieved."""
    combiner = lambda direct, indirect: achieved  # noqa: E731
    record = evaluate_request(required, TrustEstimate(0.0), TrustEstimate(0.0),
                              combiner=combiner)
    result = run_assessment(one_edge_network(required), combiner)
    assert result.errors == [] and result.r_matrix[0, 1] == record.risk
    return record.risk, float(result.r_matrix[0, 1])


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
        for risk in live_risks(required, achieved):
            assert risk == pytest.approx(expected, abs=1e-12)

    def test_zero_when_achieved_covers_requirement(self):
        assert live_risks(0.4, 0.7) == (0.0, 0.0)
        assert live_risks(0.4, 0.4) == (0.0, 0.0)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            evaluate_request(1.2, TrustEstimate(0.0), TrustEstimate(0.0),
                             combiner=lambda direct, indirect: 0.5)
        with pytest.raises(ValueError):
            one_edge_network(1.2)
        with pytest.raises(ValueError):
            evaluate_request(0.5, TrustEstimate(0.0), TrustEstimate(0.0),
                             combiner=lambda direct, indirect: -0.1)
        result = run_assessment(one_edge_network(0.5), lambda direct, indirect: -0.1)
        assert [(e.kind, e.message) for e in result.errors] == [
            ("RangeError", "achieved must lie in [0, 1], got -0.1")]

    @given(unit, unit, unit)
    def test_monotonicity(self, required, low, high):
        lo, hi = sorted((low, high))
        for at_hi, at_lo in zip(live_risks(required, hi), live_risks(required, lo)):
            assert at_hi <= at_lo
        r_lo, r_hi = sorted((low, high))
        for at_lo, at_hi in zip(live_risks(r_lo, required), live_risks(r_hi, required)):
            assert at_lo <= at_hi


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


class TestSharedShortCircuitRecords:
    @pytest.mark.parametrize(
        "decision, first, second",
        [
            (Decision.ACCEPT_DIRECT,
             (0.4546, TrustEstimate(0.5133), TrustEstimate(0.7578)),
             (0.9, TrustEstimate(1.0, 0.3), TrustEstimate(0.1), RiskAppetite(0.5))),
            (Decision.ACCEPT_INDIRECT,
             (0.5383, TrustEstimate(0.1610), TrustEstimate(0.5953)),
             (0.9, TrustEstimate(0.0, 0.3), TrustEstimate(0.95), RiskAppetite(0.5))),
        ],
        ids=["direct", "indirect"],
    )
    def test_one_record_per_short_circuit_outcome(self, decision, first, second):
        record = evaluate_request(*first)
        assert evaluate_request(*second) is record
        assert record == TrustRecord(None, 0.0, decision)

    def test_fused_call_returns_a_new_record(self):
        args = (0.7148, TrustEstimate(0.6844), TrustEstimate(0.0445), RiskAppetite(0.2))
        first, second = evaluate_request(*args), evaluate_request(*args)
        assert first == second and first is not second
        assert first.decision is Decision.ACCEPT_WITH_RISK


def scalar_oracle(required, a, b, appetite, variances):
    """(decision, combined, risk) of one request, or the name of its error.

    Written out line by line from the paper's chain and the method of
    moments, independently of the package.
    """
    if a >= required:
        return "AcceptDirect", None, 0.0
    if b >= required:
        return "AcceptIndirect", None, 0.0
    shapes = []
    for mean, variance in zip((a, b), variances):
        m = min(max(mean, 1e-6), 1.0 - 1e-6)
        bound = m * (1.0 - m)
        if variance >= bound or variance < bound * 2.0**-1022:
            return "InvalidVarianceError"
        alpha = m * (bound / variance - 1.0)
        shapes.append((alpha, alpha * (1.0 - m) / m))
    (alpha_a, beta_a), (alpha_b, beta_b) = shapes
    alpha = alpha_a + alpha_b - 1.0
    beta = beta_a + beta_b - 1.0
    if alpha <= 0.0 or beta <= 0.0:
        return "DegeneratePosteriorError"
    combined = alpha / (alpha + beta)
    if combined == 1.0:
        combined = 1.0 - 2.0**-53
    risk = required - combined if required - combined > 0.0 else 0.0
    if risk == 0.0:
        return "AcceptCombined", combined, risk
    if risk <= appetite:
        return "AcceptWithRisk", combined, risk
    return "Decline", combined, risk


def exact(row):
    """A result row with each float as its hex form, so that -0.0 differs from 0.0."""
    if isinstance(row, str):
        return row
    return tuple(x.hex() if isinstance(x, float) else x for x in row)


def near_bound_variance(rng, mean):
    """A variance for mean at, just inside or just outside one of its two bounds, or 0.01.

    The bounds are m*(1-m) and m*(1-m)*2**-1022 of the clamped mean m.
    """
    m = min(max(mean, 1e-6), 1.0 - 1e-6)
    bound, u = m * (1.0 - m), rng.random()
    factors = (1.0, 1.0 - 2.0**-52, 1.0 - 1e-3 * u, 1.0 + 1e-3 * u,
               2.0**-1022, 2.0**-1022 * (1.0 - 2.0**-10), 2.0**-1022 * (1.0 + u), None)
    factor = factors[rng.integers(len(factors))]
    return 0.01 if factor is None else bound * factor


# uniform T, A, B and appetite; the default variance is the single-requests recipe
@pytest.mark.parametrize("seed, draws, variance", [
    (501, 20_000, lambda rng, mean: 0.01),
    (502, 6_000, near_bound_variance),
], ids=["default-variance", "near-variance-bounds"])
def test_evaluate_request_matches_the_scalar_oracle_bit_for_bit(seed, draws, variance):
    rng = np.random.Generator(np.random.PCG64(seed))
    seen = set()
    for required, a, b, appetite in zip(*rng.random((4, draws)).tolist()):
        variances = (variance(rng, a), variance(rng, b))
        expected = scalar_oracle(required, a, b, appetite, variances)
        try:
            record = evaluate_request(required, TrustEstimate(a, variances[0]),
                                      TrustEstimate(b, variances[1]), RiskAppetite(appetite))
        except TrustError as exc:
            got = type(exc).__name__
        else:
            got = (record.decision.value, record.combined, record.risk)
        assert exact(got) == exact(expected), (required, a, b, appetite, variances)
        seen.add(expected if isinstance(expected, str) else expected[0])
    assert seen == {d.value for d in Decision} | {
        "InvalidVarianceError", "DegeneratePosteriorError"}


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
