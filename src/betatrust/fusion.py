"""Beta-distribution fusion of direct and indirect trust estimates.

Each trust source is summarised as an estimate (mean, variance) of the
probability p that a peer behaves well.  An estimate is matched to a
Beta(alpha, beta) distribution by the method of moments:

    alpha = m * (m * (1 - m) / var - 1)
    beta  = alpha * (1 - m) / m

With the direct-trust Beta acting as the prior and the indirect-trust
Beta kernel as the likelihood, the product of the two kernels

    p^(aA - 1) * (1 - p)^(bA - 1) * p^(aB - 1) * (1 - p)^(bB - 1)

is the kernel of Beta(aA + aB - 1, bA + bB - 1).  The combined trust is
its mean, and combined_trust evaluates it as this ratio of two positive
shapes:

    C = (aA + aB - 1) / K,    K = aA + aB + bA + bB - 2

The same value decomposes into a weighted sum of the source means:

    C = m_A * W_A + m_B * W_B
    W_A = (aA + bA) / K
    W_B = (aB + bB) * (aB - 1) / (aB * K)

The sum explains how much each source counts (_fusion_weights computes
the weights, `betatrust fuse` prints them), but C is not evaluated
through it: its terms cancel as aA + aB - 1 approaches 0, where the sum
can round below zero.

Note the shape arithmetic: multiplying the kernels lowers each combined
exponent by one relative to summing the shape parameters outright, hence
the "- 1" in both posterior shapes.  A sloppier bookkeeping that keeps
exponent (bA + bB) on (1 - p) would shift the second shape up by one;
the kernel product above is the form the conjugacy tests pin down.

W_B is negative whenever aB < 1 (a very pessimistic indirect source).
The identity holds all the same, so negative weights are returned as-is
rather than clipped.

The inversion, posterior and mean arithmetic is written once, in
_source_shapes, _posterior_shapes and _shape_mean, which take floats or
numpy arrays alike.  _checked_source clamps and checks one estimate, and
_checked_posterior one shape pair, for combined_trust and `betatrust
fuse`; combined_trust_columns checks whole columns of them, so all three
give bit-identical values and fail on the same estimates.  The two
checks' errors format one of five errors._Format texts, built at import,
only when read; the value rules' errors format their text at once, since
their value may be mutable.

Accuracy: C lies within 105 ulps of this formula's exact value on 18,870
seeded pairs at the default variance.  No fixed ulp count holds: the
error grows as aA + aB or bA + bB nears 1, or a variance nears its bound.

All functions here are pure and deterministic: identical inputs give
bit-identical outputs, and no shared state exists, so they are safe to
call from any number of concurrent contexts.
"""
from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import DegeneratePosteriorError, InvalidVarianceError, RangeError, _Format

# Trust means are clamped to [EPSILON, 1 - EPSILON] before the moment
# inversion; a mean of exactly 0 or 1 would divide by zero in the beta
# shape formula while clamping preserves the ordering of estimates.
MEAN_EPSILON = 1e-6
_MEAN_CEILING = 1.0 - MEAN_EPSILON

# Variance assumed for a trust source that does not report one.  Small
# enough that every mean in (0.0106, 0.9894) stays invertible.
DEFAULT_VARIANCE = 0.01


def _real(value):
    """The number to compute with: None for a non-Real or a bool (it compares as 0 or 1), a
    numpy float or integer as the Python number of its value (numpy computes in its type)."""
    if isinstance(value, bool) or not isinstance(value, Real):
        return None
    if isinstance(value, np.floating):
        return float(value)
    return int(value) if isinstance(value, np.integer) else value


def _check_unit_interval(name: str, value: float) -> float:
    if type(value) is float:
        if 0.0 <= value <= 1.0:
            return value
    elif (number := _real(value)) is not None and 0.0 <= number <= 1.0:
        return number
    raise RangeError(f"{name} must lie in [0, 1], got {value!r}")


def _check_variance(name: str, value: float) -> float:
    if type(value) is float:
        if value > 0.0:
            return value
    elif (number := _real(value)) is not None and number > 0.0:
        return number
    raise InvalidVarianceError(f"{name} must be positive, got {value!r}")


@dataclass(frozen=True, slots=True, init=False)
class TrustEstimate:
    """A trust value in [0, 1] together with the variance of the estimate.

    The mean must be a real number in [0, 1] (RangeError), the variance
    one above 0 (InvalidVarianceError); a bool or a str is neither.  A
    numpy number is stored as the Python number of its value.  Whether
    a Beta with this mean can have the variance (see _checked_source) is
    checked only when the estimate is fused: a request accepted via A
    never inverts its direct estimate, so a source at mean 1.0 with the
    default variance, far above its bound m*(1-m) of about 1e-6, accepts.
    """

    mean: float
    variance: float

    # stores what the value rules return, each through its slot's own setter
    def __init__(self, mean: float, variance: float = DEFAULT_VARIANCE) -> None:
        _set_mean(self, _check_unit_interval("mean", mean))
        _set_variance(self, _check_variance("variance", variance))


# the slots' setters, from the class the decorator made: each stores its field
# without the lookup that object.__setattr__ makes on every call
_set_mean = TrustEstimate.mean.__set__
_set_variance = TrustEstimate.variance.__set__


def _source_shapes(m, variance, bound):
    """(alpha, beta) of the Beta with mean m and variance below bound = m * (1 - m), unchecked."""
    alpha = m * (bound / variance - 1.0)
    return alpha, alpha * (1.0 - m) / m


# _variance_error's texts for a mean as given and for one clamped, built once
_AT_BOUND_TEXTS, _TOO_SMALL_TEXTS = (
    (_Format(head + reason), _Format(f"{head} of the mean %r clamped to %r{reason}"))
    for head, reason in (
        ("variance %r >= mean*(1-mean) = %r", ": no Beta distribution has these moments"),
        ("variance %r < mean*(1-mean)*2**-1022", ": the Beta shapes would overflow")))
_DEGENERATE_TEXT = _Format("posterior shapes (%r, %r) are not both positive")


def _variance_error(mean, m, variance, bound) -> InvalidVarianceError:
    """The error of a variance outside [bound * 2**-1022, bound), bound of mean clamped to m.

    Its args are a format string and the numbers it names; str() formats them.
    """
    if variance >= bound:
        texts, operands = _AT_BOUND_TEXTS, (variance, bound)
    else:
        texts, operands = _TOO_SMALL_TEXTS, (variance,)
    if m == mean:
        return InvalidVarianceError(texts[0], *operands)
    return InvalidVarianceError(texts[1], *operands, mean, m)


def _posterior_shapes(alpha_a, beta_a, alpha_b, beta_b):
    """Shapes of the product of two Beta kernels."""
    return alpha_a + alpha_b - 1.0, beta_a + beta_b - 1.0


def _shape_mean(alpha, beta):
    """alpha / (alpha + beta), the mean of Beta(alpha, beta); 1 - 2**-53 where it rounds to 1."""
    mean = alpha / (alpha + beta)
    return mean - (mean == 1.0) * 2.0**-53


def _checked_source(mean, variance) -> tuple[float, float]:
    """(alpha, beta) of one estimate: the mean clamped, the variance checked before dividing.

    The mean is clamped to [MEAN_EPSILON, 1 - MEAN_EPSILON] first.
    Raises InvalidVarianceError when the variance is at least m*(1-m),
    the supremum attainable by any Beta with mean m, or below
    m*(1-m)*2**-1022, where alpha + beta would exceed 2**1022 and the
    shape sum of a posterior built from them could overflow.  Both shapes
    are finite and positive otherwise.
    """
    m = MEAN_EPSILON if mean < MEAN_EPSILON else _MEAN_CEILING if mean > _MEAN_CEILING else mean
    bound = m * (1.0 - m)
    if not bound * 2.0**-1022 <= variance < bound:
        raise _variance_error(mean, m, variance, bound)
    return _source_shapes(m, variance, bound)


def _checked_posterior(alpha_a, beta_a, alpha_b, beta_b) -> tuple[float, float]:
    """Posterior shapes; DegeneratePosteriorError unless both are positive."""
    alpha, beta = _posterior_shapes(alpha_a, beta_a, alpha_b, beta_b)
    if alpha <= 0.0 or beta <= 0.0:
        raise DegeneratePosteriorError(_DEGENERATE_TEXT, alpha, beta)
    return alpha, beta


def _fusion_weights(alpha_a, beta_a, alpha_b, beta_b) -> tuple[float, float, float]:
    """(k, w_a, w_b) of the weighted sum C = m_A * w_a + m_B * w_b.

    Call it on shapes that passed _checked_posterior: k is then the
    posterior's positive shape sum.  w_b is evaluated as
    (aB + bB) / k * (1 - 1/aB), which stays finite for shapes whose
    product would overflow.
    """
    k = alpha_a + beta_a + alpha_b + beta_b - 2.0
    return k, (alpha_a + beta_a) / k, (alpha_b + beta_b) / k * (1.0 - 1.0 / alpha_b)


def combined_trust(direct: TrustEstimate, indirect: TrustEstimate) -> float:
    """Fuse a direct and an indirect trust estimate into the combined trust.

    The direct estimate plays the prior and the indirect estimate the
    likelihood.  The result is the posterior Beta mean alpha / (alpha +
    beta), evaluated directly rather than through the weighted sum of
    _fusion_weights, which equals it in exact arithmetic but cancels near
    a degenerate posterior.  The kernel product is symmetric, so
    swapping the roles changes the weights but not the result.

    Propagates InvalidVarianceError from the moment inversion and
    DegeneratePosteriorError when the combination is degenerate.
    """
    alpha_a, beta_a = _checked_source(direct.mean, direct.variance)
    alpha_b, beta_b = _checked_source(indirect.mean, indirect.variance)
    return _shape_mean(*_checked_posterior(alpha_a, beta_a, alpha_b, beta_b))


def combined_trust_columns(
    direct_mean: np.ndarray,
    direct_variance: np.ndarray,
    indirect_mean: np.ndarray,
    indirect_variance: np.ndarray,
) -> np.ndarray:
    """combined_trust over columns of estimates, NaN where it would raise.

    Each entry is bit-identical to combined_trust on the same estimate
    pair; an entry is NaN exactly where combined_trust raises, so the
    caller recovers the error by calling it on that pair alone.
    """
    with np.errstate(all="ignore"):
        valid = np.ones(direct_mean.shape, dtype=bool)
        shapes = []
        for mean, variance in ((direct_mean, direct_variance),
                               (indirect_mean, indirect_variance)):
            m = np.minimum(np.maximum(mean, MEAN_EPSILON), _MEAN_CEILING)
            bound = m * (1.0 - m)
            valid &= (variance < bound) & (variance >= bound * 2.0**-1022)
            shapes += _source_shapes(m, variance, bound)
        alpha, beta = _posterior_shapes(*shapes)
        valid &= (alpha > 0.0) & (beta > 0.0)
        return np.where(valid, _shape_mean(alpha, beta), np.nan)
