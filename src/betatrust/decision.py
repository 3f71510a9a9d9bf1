"""Job-acceptance decisions: required trust versus the trust sources.

A request carries a required trust level T.  It is tested against the
sources in a fixed short-circuit order: direct trust A first, then
indirect trust B, then the fused combined trust C.  Whichever source
first reaches T accepts the job with zero risk and the combined value is
never computed.  Only when the chain falls through to C is a risk value
R = max(0, T - C) attached; the node's risk appetite then separates
accepting the shortfall from declining the job.

Risk is derived from the combined value only, never from an A or B
shortfall: a job cleared by A or B carries no risk by definition.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from .fusion import TrustEstimate, _check_unit_interval, combined_trust, combined_trust_columns

# Anything turning a (direct, indirect) pair into one combined trust
# value; combined_trust is the default, simple averaging the alternative.
Combiner = Callable[[TrustEstimate, TrustEstimate], float]


class Decision(Enum):
    """Outcome of evaluating one job request against one peer."""

    ACCEPT_DIRECT = "AcceptDirect"
    ACCEPT_INDIRECT = "AcceptIndirect"
    ACCEPT_COMBINED = "AcceptCombined"
    ACCEPT_WITH_RISK = "AcceptWithRisk"
    DECLINE = "Decline"

    @property
    def accepted(self) -> bool:
        return self is not Decision.DECLINE

    @property
    def reached_combined(self) -> bool:
        """True when the decision required computing the combined trust."""
        return self in (
            Decision.ACCEPT_COMBINED,
            Decision.ACCEPT_WITH_RISK,
            Decision.DECLINE,
        )


# Decisions in outcome-code order; code -1 marks an edge that failed.
DECISIONS = tuple(Decision)
FAILED = -1


def fused_code(risk, appetite):
    """Code in DECISIONS of a request that reached C, for floats or arrays alike.

    Relies on risk = max(0, T - C) >= 0 and on DECISIONS holding ACCEPT_COMBINED
    (no shortfall), ACCEPT_WITH_RISK (within appetite) and DECLINE at 2, 3 and 4.
    """
    return 2 + (risk > 0.0) + (risk > appetite)


@dataclass(frozen=True, slots=True, init=False)
class RiskAppetite:
    """Maximum risk a node is willing to take when trust falls short.

    The default of 0 declines on any shortfall.  A numpy float or integer
    is stored as the Python float or int of the same value.
    """

    max_acceptable_risk: float

    def __init__(self, max_acceptable_risk: float = 0.0) -> None:
        object.__setattr__(self, "max_acceptable_risk",
                           _check_unit_interval("max_acceptable_risk", max_acceptable_risk))


@dataclass(frozen=True, slots=True)
class TrustRecord:
    """Outcome of one job request: combined trust, risk and decision.

    combined is None exactly when the decision short-circuited before
    the combined-trust step; serialisers render the absent value as 0.
    risk is 0 unless the chain reached C.

    A record is immutable and holds only immutable values, so the two
    short-circuit outcomes are each one shared record: compare records
    with ==, not is.
    """

    combined: Optional[float]
    risk: float
    decision: Decision


# The record of every request accepted by A, and of every one accepted by B.
_ACCEPTED_DIRECT = TrustRecord(None, 0.0, Decision.ACCEPT_DIRECT)
_ACCEPTED_INDIRECT = TrustRecord(None, 0.0, Decision.ACCEPT_INDIRECT)


def evaluate_request(
    required: float,
    direct: TrustEstimate,
    indirect: TrustEstimate,
    appetite: RiskAppetite = RiskAppetite(),
    combiner: Combiner = combined_trust,
) -> TrustRecord:
    """Run the A -> B -> C short-circuit chain for one job request.

    Acceptance via A or B leaves combined absent and risk 0, and returns
    the one shared record of that outcome without building a new one.
    Otherwise the combiner produces C, risk becomes max(0, required - C),
    fused_code picks the outcome, and the record is new.

    Every failure is a TrustError: fusion errors from the combiner
    propagate unchanged, and a required or combined value that is not a
    real number in [0, 1] (a bool and NaN included) raises RangeError.
    A numpy float or integer T or C counts as the Python number of its value.
    """
    required = _check_unit_interval("required", required)
    if direct.mean >= required:
        return _ACCEPTED_DIRECT
    if indirect.mean >= required:
        return _ACCEPTED_INDIRECT
    combined = _check_unit_interval("achieved", combiner(direct, indirect))
    risk = required - combined if required > combined else 0.0
    return TrustRecord(combined, risk, DECISIONS[fused_code(risk, appetite.max_acceptable_risk)])


def average_combiner(direct: TrustEstimate, indirect: TrustEstimate) -> float:
    """Unweighted average (A + B) / 2 of the two source means.

    A naive stand-in baseline for side-by-side comparison with the Beta
    fusion; it is not a calibrated weighting scheme and ignores the
    variances entirely.
    """
    return (direct.mean + indirect.mean) / 2.0


def average_combiner_columns(direct_mean, direct_variance, indirect_mean, indirect_variance):
    """average_combiner over columns of estimates."""
    return (direct_mean + indirect_mean) / 2.0


#: Named combiners selectable from configuration and the command line.
COMBINERS: dict[str, Combiner] = {
    "beta": combined_trust,
    "average": average_combiner,
}

#: Column forms of the named combiners: (direct mean, direct variance,
#: indirect mean, indirect variance) arrays in, an array of combined
#: values out, NaN where the scalar combiner raises.
COLUMN_COMBINERS = {
    combined_trust: combined_trust_columns,
    average_combiner: average_combiner_columns,
}
