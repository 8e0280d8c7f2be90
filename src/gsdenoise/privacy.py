"""Gaussian mechanisms for (epsilon, delta)-differential privacy.

Two calibrations of the noise scale sigma for a query of l2-sensitivity
Delta: the classical bound sigma = Delta sqrt(2 log(1.25/delta)) / epsilon,
and the analytic mechanism, which finds the minimal sigma satisfying

    Phi(Delta/(2 sigma) - eps sigma/Delta)
        - e^eps Phi(-Delta/(2 sigma) - eps sigma/Delta) <= delta

by bisection; the left side is monotone decreasing in sigma and depends on
sigma/Delta only. Denoising the sanitized signal afterwards is free by
post-processing immunity, which is the whole premise of this package.
"""

import math
from dataclasses import dataclass

import numpy as np

from .signals import require_choice, require_finite, require_positive

MECHANISMS = ("classical", "analytic")


@dataclass(frozen=True)
class PrivacyParams:
    """Privacy budget, slack, query sensitivity and mechanism choice.

    The classical mechanism's guarantee is stated for epsilon in (0, 1];
    the analytic mechanism accepts any finite epsilon >= 0 and delta in
    [0, 1], though calibration itself needs epsilon > 0 and delta in (0, 1).
    """

    epsilon: float
    delta: float
    sensitivity: float = 1.0
    mechanism: str = "analytic"

    def __post_init__(self):
        require_choice("mechanism", self.mechanism, MECHANISMS)
        require_positive("sensitivity", self.sensitivity)
        if self.mechanism == "classical":
            if not 0 < self.epsilon <= 1:
                raise ValueError("classical mechanism requires epsilon in "
                                 f"(0, 1], got {self.epsilon}")
            if not 0 < self.delta < 1:
                raise ValueError("classical mechanism requires delta in "
                                 f"(0, 1), got {self.delta}")
        else:
            if not 0 <= self.epsilon < math.inf:
                raise ValueError("epsilon must be nonnegative and finite")
            if not 0 <= self.delta <= 1:
                raise ValueError("delta must lie in [0, 1]")


def gaussian_cdf(x):
    """Standard normal CDF via the complementary error function.

    Accurate to well below 1e-12 over the whole real line, including the
    far left tail where 1 - Phi(-x) would cancel.
    """
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def classical_sigma(params):
    """Noise scale of the classical Gaussian mechanism, with equality."""
    if not 0 < params.epsilon <= 1 or not 0 < params.delta < 1:
        raise ValueError("classical mechanism requires epsilon in (0, 1] "
                         "and delta in (0, 1)")
    return (params.sensitivity
            * math.sqrt(2.0 * math.log(1.25 / params.delta)) / params.epsilon)


def _analytic_condition(s, epsilon):
    """Left side of the analytic-mechanism inequality at s = sigma/Delta."""
    a = 1.0 / (2.0 * s)
    b = epsilon * s
    return gaussian_cdf(a - b) - math.exp(epsilon) * gaussian_cdf(-a - b)


def analytic_sigma(params):
    """Minimal sigma meeting the analytic Gaussian mechanism condition.

    Bisects on s = sigma/Delta between 1e-6 and twice the classical formula
    value (evaluated regardless of the classical domain restriction, since
    it always upper-bounds the analytic scale) until no float lies between
    the ends of the bracket. Returns the upper end, so the condition holds
    there and fails at the next float below it.
    """
    if not params.epsilon > 0:
        raise ValueError("analytic calibration requires epsilon > 0")
    if not 0 < params.delta < 1:
        raise ValueError("analytic calibration requires delta in (0, 1)")
    eps, delta = params.epsilon, params.delta
    lo = 1e-6
    hi = 2.0 * math.sqrt(2.0 * math.log(1.25 / delta)) / eps
    c_lo = _analytic_condition(lo, eps)
    c_hi = _analytic_condition(hi, eps)
    if c_lo <= delta or c_hi > delta:
        raise ValueError(
            f"bisection bracket failure: condition({lo})={c_lo}, "
            f"condition({hi})={c_hi}, delta={delta}")
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi * params.sensitivity
        if _analytic_condition(mid, eps) <= delta:
            hi = mid
        else:
            lo = mid


def calibrate_sigma(params):
    """Dispatch to the mechanism selected in params."""
    if params.mechanism == "classical":
        return classical_sigma(params)
    return analytic_sigma(params)


def sanitize(f, sigma, seed=0):
    """Add white Gaussian noise of scale sigma; returns (noisy, sigma).

    sigma is returned alongside because post-processing (the denoiser) is
    allowed to use it: privacy is already paid for by the noise.
    """
    require_positive("sigma", sigma)
    f = np.asarray(f, dtype=np.float64)
    require_finite(f)
    rng = np.random.default_rng(seed)
    return f + sigma * rng.standard_normal(f.shape), float(sigma)
