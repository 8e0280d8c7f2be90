"""James-Stein coefficient thresholding with SURE-optimal level selection.

The shrinkage rule tau(x, t) = x max(1 - t^beta |x|^-beta, 0) interpolates
from soft thresholding (beta = 1) toward hard thresholding as beta grows;
beta is capped at 100. Thresholds are chosen per scale by minimizing the
scale's additive SURE contribution over observed magnitudes, where SURE
restricted to this family has its kinks: the percentiles 0, 1, ..., 100 of
the absolute coefficients, every magnitude of a block of up to 101. The
selection returns the SURE it minimised along with the thresholds, so a
request evaluates SURE once and never holds the shrinkage's derivatives.

Selection costs one sort per scale plus a few linear passes: with the
block sorted by magnitude, the percentile candidates are read off at their
ranks and cut the block into at most 205 segments, every term of the
objective is summed once per segment, and the objectives at every
candidate are one weighted sum of those segment sums, instead of a pass
over the block per candidate. The weights are 0/1 masks and powers of
ratios no greater than 1, so beta up to 100 overflows nothing.
"""

from dataclasses import dataclass

import numpy as np

from .frame import FrameCoefficients
from .signals import require_positive, require_weights

BETA_MAX = 100.0


def require_beta(beta):
    """Refuse a shrinkage exponent outside [1, BETA_MAX]."""
    if not 1.0 <= beta <= BETA_MAX:
        raise ValueError(f"beta must lie in [1, {BETA_MAX}], got {beta}")


def _shrink(x, t, beta, out, slope=None):
    """Write tau(x, t) into out and, given slope, its derivative (see
    js_derivative) into slope, from one (t / |x|)^beta held in out: 0 where
    x = 0, and capped at 2^beta, since ratios above 1 only feed a factor
    clamped to 0. |x| and the masks are the only temporaries."""
    absx = np.abs(x)
    out.fill(0.0)
    if t != 0:
        with np.errstate(over="ignore"):  # inf ratios are capped right after
            np.divide(t, absx, out=out, where=absx > 0)
            np.minimum(out, 2.0, out=out)
            out **= beta
    if slope is not None:
        np.multiply(out, beta - 1.0, out=slope)
        slope += 1.0
        np.copyto(slope, 0.0, where=~(absx > t))
        if t > 0:
            np.copyto(slope, beta, where=absx == t)
    np.subtract(1.0, out, out=out)
    np.maximum(out, 0.0, out=out)
    out *= x


def _shrink_new(x, t, beta):
    """(tau(x, t), its derivative) as new arrays, floats for scalar x."""
    require_beta(beta)
    if t < 0:
        raise ValueError("threshold must be nonnegative")
    x = np.asarray(x, dtype=np.float64)
    out, slope = np.empty_like(x), np.empty_like(x)
    _shrink(x, t, beta, out, slope)
    if x.ndim == 0:
        return float(out), float(slope)
    return out, slope


def js_threshold(x, t, beta=2.0):
    """Shrink x toward zero, killing it entirely when |x| <= t."""
    return _shrink_new(x, t, beta)[0]


def js_derivative(x, t, beta=2.0):
    """Derivative of the shrinkage rule in its first argument.

    0 inside the dead zone, 1 + (beta - 1)(t/|x|)^beta outside. At the kink
    |x| = t > 0 the right limit beta is returned; at x = 0 the value is 0,
    so an all-zero coefficient block contributes nothing to the SURE
    divergence term for any threshold.
    """
    return _shrink_new(x, t, beta)[1]


# The candidate thresholds of a scale are these percentiles of its
# magnitudes. Exact selection over every magnitude was measured instead
# (median of 5 runs, one thread): select went from 26.5 to 241 ms on the
# 300x300 grid and from 77 to 658 ms on 500x500, about as long again as a
# whole request when the operator and weights are reused.
PERCENTILES = np.linspace(0.0, 100.0, 101)


def _grid(a):
    """Sorted candidate thresholds of a block from its magnitudes a, sorted
    ascending: the PERCENTILES of a (taken as order statistics, so every
    percentile is an observed magnitude), deduplicated, with 0 and +inf
    sentinels.

    The percentile q is the order statistic at rank floor((n - 1) q / 100),
    with q / 100 rounded first: the rank np.percentile(method="lower")
    takes, so the grid is the same without a second selection pass.
    """
    if a.size == 0:
        raise ValueError("empty coefficient block")
    q = PERCENTILES / 100
    qs = a[np.floor((a.size - 1) * q).astype(np.intp)]
    return np.unique(np.concatenate([[0.0], qs, [np.inf]]))


@dataclass
class ThresholdPolicy:
    """One threshold per scale plus the shrinkage exponent."""

    beta: float
    thresholds: np.ndarray

    def __post_init__(self):
        require_beta(self.beta)
        self.thresholds = np.asarray(self.thresholds, dtype=np.float64)
        if np.any(self.thresholds < 0):
            raise ValueError("thresholds must be nonnegative")


def _by_magnitude(x, w):
    """|x| sorted ascending, and the weights in the same order."""
    a = np.abs(x)
    order = np.argsort(a)
    a = a[order]  # the unsorted copy is freed before the weights are sorted
    return a, w[order]


def _segment_sums(x, edges):
    """Sums of x over its segments [edges[i], edges[i + 1]), 0 where a
    segment is empty; edges run from 0 to x.size, nondecreasing."""
    full = edges[:-1] < edges[1:]  # reduceat reads an empty one as an entry
    out = np.zeros(edges.size - 1)
    out[full] = np.add.reduceat(x, edges[:-1][full])
    return out


def _scale_objectives(a, w, sigma, t, beta):
    """SURE contribution of one scale at each sorted threshold t, from 0 to
    +inf, up to the -n sigma^2, from the block's magnitudes a sorted
    ascending with their weights w (see _by_magnitude).

    Entries with |x| < t are dead and contribute x^2. Entries at the kink
    |x| = t > 0 are dead too and add the slope beta: x^2 + 2 sigma^2 beta w.
    Entries with |x| > t contribute
    t^(2 beta) |x|^(2 - 2 beta) + 2 sigma^2 w (1 + (beta - 1) t^beta |x|^-beta),
    and exact zeros contribute nothing.

    The thresholds cut the sorted block into segments, alternately the
    kink of a threshold t_s (the entries equal to it) and the gap up to
    the next one, and each entry takes r = (t_s / |x|)^beta <= 1 of its
    segment's t_s, 0 at the zeros. With rho = (t / t_s)^beta <= 1 over the
    segments live at t, the power terms are rho^2 x^2 r^2 and rho r, so no
    power exceeds 1 for beta up to BETA_MAX. The segment sums of x^2, w,
    x^2 r^2 and w r are taken once, and every objective is one weighted
    sum of them: 0/1 masks of the dead, live and kink segments for the
    first two, rho and rho^2 for the power sums.
    """
    lo = np.searchsorted(a, t, side="left")
    hi = np.searchsorted(a, t, side="right")
    edges = np.column_stack([lo, hi]).ravel()  # kink k is segment 2k
    owner = t[np.arange(edges.size - 1) // 2]  # t_s of each segment
    r = np.repeat(owner, np.diff(edges))
    np.divide(r, a, out=r, where=a > 0)
    r **= beta
    s2 = 2.0 * sigma ** 2
    sums = [_segment_sums(a * a, edges), s2 * _segment_sums(w, edges),
            s2 * (beta - 1.0) * _segment_sums(w * r, edges)]
    r *= a
    sums.append(_segment_sums(np.square(r, out=r), edges))

    seg, k = np.arange(owner.size), np.arange(t.size)[:, None]
    live = seg > 2 * k  # gap k and every later segment
    kink = (seg == 2 * k) & (t[:, None] > 0)
    rho = np.zeros(live.shape)
    np.divide(t[:, None], owner, out=rho, where=live & (owner > 0))
    rho **= beta
    masks = np.stack([~live, live + beta * kink, rho, rho * rho])
    # einsum's own loop, as in signals.dot: no BLAS
    return np.einsum("mks,ms->k", masks, np.stack(sums))


def select_thresholds_sure(coeffs, weights, sigma, beta=2.0):
    """Level-dependent thresholds minimizing SURE scale by scale, given the
    Gram diagonal weights, one per coefficient; returns (policy, sure).

    Coordinate-wise SURE is additive over coefficients, so each scale's
    threshold decouples and is found on its own candidate grid; ties break
    toward the smallest candidate. sure is the SURE attained at the chosen
    thresholds, -n sigma^2 plus each scale's minimum objective: the value
    ``sure.sure_value`` gives for the policy's shrinkage, without a second
    pass over the coefficients.
    """
    require_beta(beta)
    require_positive("sigma", sigma)
    wdiag = np.asarray(weights, dtype=np.float64)
    if wdiag.shape != coeffs.values.shape:
        raise ValueError("weights length does not match coefficients")
    require_weights(wdiag)
    thresholds = np.empty(coeffs.J + 1)
    sure = -coeffs.n * sigma ** 2
    for j in range(coeffs.J + 1):
        a, wj = _by_magnitude(coeffs.block(j),
                              wdiag[j * coeffs.n:(j + 1) * coeffs.n])
        grid = _grid(a)
        objs = _scale_objectives(a, wj, sigma, grid, beta)
        best = int(np.argmin(objs))
        thresholds[j] = grid[best]
        sure += float(objs[best])
    return ThresholdPolicy(beta, thresholds), sure


def apply_policy(coeffs, policy):
    """Threshold every scale; returns the new coefficients, written into
    their output slices from one ratio power per scale."""
    if policy.thresholds.shape != (coeffs.J + 1,):
        raise ValueError(f"policy has {policy.thresholds.size} thresholds "
                         f"for {coeffs.J + 1} scales")
    out = np.empty_like(coeffs.values)
    for j in range(coeffs.J + 1):
        sl = slice(j * coeffs.n, (j + 1) * coeffs.n)
        _shrink(coeffs.values[sl], policy.thresholds[j], policy.beta,
                out[sl])
    return FrameCoefficients(out, coeffs.n, coeffs.J)
