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

The sum explains how much each source counts (fusion_weights computes
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
helpers that take floats or numpy arrays alike: the scalar functions
below call them on floats, and combined_trust_columns calls them on
whole columns of estimates, so both give bit-identical values.

All functions here are pure and deterministic: identical inputs give
bit-identical outputs, and no shared state exists, so they are safe to
call from any number of concurrent contexts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import DegeneratePosteriorError, InvalidVarianceError, RangeError

# Trust means are clamped to [EPSILON, 1 - EPSILON] before the moment
# inversion; a mean of exactly 0 or 1 would divide by zero in the beta
# shape formula while clamping preserves the ordering of estimates.
MEAN_EPSILON = 1e-6

# Variance assumed for a trust source that does not report one.  Small
# enough that every mean in (0.0106, 0.9894) stays invertible.
DEFAULT_VARIANCE = 0.01


def _is_real(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)  # bool compares as 0 or 1


def _check_unit_interval(name: str, value: float) -> None:
    if not ((type(value) is float or _is_real(value)) and 0.0 <= value <= 1.0):
        raise RangeError(f"{name} must lie in [0, 1], got {value!r}")


def _check_variance(name: str, value: float) -> None:
    if not ((type(value) is float or _is_real(value)) and value > 0.0):
        raise InvalidVarianceError(f"{name} must be positive, got {value!r}")


def clamp_mean(mean: float) -> float:
    """Clamp a trust mean to [MEAN_EPSILON, 1 - MEAN_EPSILON]."""
    return min(max(mean, MEAN_EPSILON), 1.0 - MEAN_EPSILON)


@dataclass(frozen=True, slots=True)
class BetaParams:
    """Shape pair (alpha, beta) of a Beta distribution, both positive."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (self.alpha > 0.0 and self.beta > 0.0):
            raise ValueError(
                f"Beta shapes must be positive, got ({self.alpha!r}, {self.beta!r})"
            )


@dataclass(frozen=True, slots=True)
class TrustEstimate:
    """A trust value in [0, 1] together with the variance of the estimate.

    The mean must be a real number in [0, 1] (RangeError), the variance
    one above 0 (InvalidVarianceError); a bool or a str is neither.  Whether
    a Beta with this mean can have the variance (see moments_to_beta) is
    checked only when the estimate is fused: a request accepted via A
    never inverts its direct estimate, so a source at mean 1.0 with the
    default variance, far above its bound m*(1-m) of about 1e-6, accepts.
    """

    mean: float
    variance: float = DEFAULT_VARIANCE

    def __post_init__(self) -> None:
        _check_unit_interval("mean", self.mean)
        _check_variance("variance", self.variance)


@dataclass(frozen=True, slots=True)
class FusionWeights:
    """Weights (w_a, w_b) and normaliser k of the combined-trust sum.

    k equals the sum of all four source shapes minus two, which is also
    the total shape mass of the posterior.  w_a is always positive; w_b
    may be negative or zero when the likelihood's alpha is at most 1.
    """

    w_a: float
    w_b: float
    k: float


def beta_pdf(params: BetaParams, x: float) -> float:
    """Density of Beta(alpha, beta) at x, evaluated in log space.

    Log-gamma keeps the normalising constant finite for large shapes.
    The endpoints are legal inputs: where the corresponding exponent is
    negative the density diverges and math.inf is returned rather than
    raising, so callers can distinguish an unbounded density from a
    domain error (x outside [0, 1], which raises ValueError).
    """
    _check_unit_interval("x", x)
    a, b = params.alpha, params.beta
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    if x == 0.0 or x == 1.0:
        exponent = a - 1.0 if x == 0.0 else b - 1.0
        if exponent < 0.0:
            return math.inf
        if exponent > 0.0:
            return 0.0
        return math.exp(log_norm)
    return math.exp(log_norm + (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x))


def _variance_bound(m):
    """m * (1 - m), the supremum of the variance of a Beta with mean m."""
    return m * (1.0 - m)


def _invert_moments(m, bound, variance):
    """Shapes (alpha, beta) with mean m and the variance, unchecked."""
    alpha = m * (bound / variance - 1.0)
    return alpha, alpha * (1.0 - m) / m


def _posterior_shapes(alpha_a, beta_a, alpha_b, beta_b):
    """Shapes of the product of two Beta kernels."""
    return alpha_a + alpha_b - 1.0, beta_a + beta_b - 1.0


def _shape_mean(alpha, beta):
    """alpha / (alpha + beta), the mean of Beta(alpha, beta); 1 - 2**-53 where it rounds to 1."""
    mean = alpha / (alpha + beta)
    return mean - (mean == 1.0) * 2.0**-53


def beta_mean(params: BetaParams) -> float:
    """Expected value alpha / (alpha + beta).

    It lies strictly inside (0, 1) in exact arithmetic.  In floating
    point it is the largest double below 1 where the quotient rounds to
    1.0 (beta below about 2**-53 * alpha), and 0.0 only on underflow.
    """
    return _shape_mean(params.alpha, params.beta)


def beta_variance(params: BetaParams) -> float:
    """Variance alpha*beta / ((alpha+beta+1) * (alpha+beta)^2).

    Evaluated as (alpha/s) * (beta/s) / (s + 1) with s = alpha + beta, so
    that it stays finite for shapes whose product would overflow.
    """
    total = params.alpha + params.beta
    return (params.alpha / total) * (params.beta / total) / (total + 1.0)


def _checked_shapes(estimate: TrustEstimate) -> tuple[float, float]:
    m = clamp_mean(estimate.mean)
    bound = _variance_bound(m)
    if estimate.variance >= bound:
        raise InvalidVarianceError(
            f"variance {estimate.variance!r} >= mean*(1-mean) = {bound!r}: "
            "no Beta distribution has these moments"
        )
    if estimate.variance < bound * 2.0**-1022:
        raise InvalidVarianceError(
            f"variance {estimate.variance!r} < mean*(1-mean)*2**-1022: "
            "the Beta shapes would overflow"
        )
    return _invert_moments(m, bound, estimate.variance)


def _checked_posterior(alpha_a, beta_a, alpha_b, beta_b) -> tuple[float, float]:
    alpha, beta = _posterior_shapes(alpha_a, beta_a, alpha_b, beta_b)
    if alpha <= 0.0 or beta <= 0.0:
        raise DegeneratePosteriorError(
            f"posterior shapes ({alpha!r}, {beta!r}) are not both positive"
        )
    return alpha, beta


def moments_to_beta(estimate: TrustEstimate) -> BetaParams:
    """Recover the Beta shape pair whose mean and variance match the estimate.

    The mean is clamped away from 0 and 1 first.  Raises
    InvalidVarianceError when the variance is at least m*(1-m), the
    supremum attainable by any Beta distribution with mean m, or below
    m*(1-m)*2**-1022, where alpha + beta would exceed 2**1022 and the
    shape sum of a posterior built from them could overflow.  Both
    recovered shapes are finite and strictly positive otherwise, and
    feeding them back through beta_mean / beta_variance reproduces the
    (clamped) input moments.
    """
    return BetaParams(*_checked_shapes(estimate))


def posterior_params(prior: BetaParams, likelihood: BetaParams) -> BetaParams:
    """Multiply two Beta kernels and return the resulting Beta shape pair.

    Raises DegeneratePosteriorError when either combined shape would be
    non-positive (the evidence is too diffuse to yield a proper
    posterior).
    """
    return BetaParams(
        *_checked_posterior(prior.alpha, prior.beta, likelihood.alpha, likelihood.beta)
    )


def fusion_weights(params_a: BetaParams, params_b: BetaParams) -> FusionWeights:
    """Weights turning the two source means into the posterior mean.

    Satisfies w_a * mean_a + w_b * mean_b == (aA + aB - 1) / k exactly
    (up to floating point) for every valid shape pair.  w_b is evaluated
    as (aB + bB) / k * (1 - 1/aB), which stays finite for shapes whose
    product would overflow.
    """
    k = params_a.alpha + params_a.beta + params_b.alpha + params_b.beta - 2.0
    if k <= 0.0:
        raise DegeneratePosteriorError(f"normaliser k = {k!r} is not positive")
    w_a = (params_a.alpha + params_a.beta) / k
    w_b = (params_b.alpha + params_b.beta) / k * (1.0 - 1.0 / params_b.alpha)
    return FusionWeights(w_a=w_a, w_b=w_b, k=k)


def combined_trust(direct: TrustEstimate, indirect: TrustEstimate) -> float:
    """Fuse a direct and an indirect trust estimate into the combined trust.

    The direct estimate plays the prior and the indirect estimate the
    likelihood.  The result is the posterior Beta mean alpha / (alpha +
    beta), evaluated directly rather than through the weighted sum of
    fusion_weights, which equals it in exact arithmetic but cancels near
    a degenerate posterior.  The kernel product is symmetric, so
    swapping the roles changes the weights but not the result.

    Propagates InvalidVarianceError from the moment inversion and
    DegeneratePosteriorError when the combination is degenerate.
    """
    alpha_a, beta_a = _checked_shapes(direct)
    alpha_b, beta_b = _checked_shapes(indirect)
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
            m = np.minimum(np.maximum(mean, MEAN_EPSILON), 1.0 - MEAN_EPSILON)
            bound = _variance_bound(m)
            valid &= (variance < bound) & (variance >= bound * 2.0**-1022)
            shapes.extend(_invert_moments(m, bound, variance))
        alpha, beta = _posterior_shapes(*shapes)
        valid &= (alpha > 0.0) & (beta > 0.0)
        return np.where(valid, _shape_mean(alpha, beta), np.nan)
