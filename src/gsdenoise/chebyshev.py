"""Eigendecomposition-free spectral filtering via Chebyshev recurrences.

Filters rho on the operator's spectral interval [0, L.lambda_ub] are
expanded in shifted Chebyshev polynomials and applied through the
three-term recurrence, so a degree-K filter costs K + 1 Laplacian
applications and O(n) extra memory.
Optional Jackson damping multiplies the coefficients to suppress Gibbs
oscillations around discontinuities. The fast wavelet transforms share a
single recurrence across all scales, which is what keeps the analysis and
synthesis cost at O(mK + n(J+1)K) instead of J + 1 separate filter runs.
The synthesis runs through the canonical dual of the frame the analysis
applies, not its adjoint: a round trip of a smooth 300x300 grid signal at
K = 100 comes back at 85.6 dB, where the adjoint's reached 38.5 dB.

Every filter application is one of two loops over the same step,
``LaplacianOperator.matvec(x, prev=y, step=True)`` = 2 Lt x - y with
Lt = (2 / L.lambda_ub) L - I: the analysis recurrence (:func:`_analysis`),
which adds a ring of Chebyshev vectors into every scale by one matrix
product, and Clenshaw's recurrence (:func:`_clenshaw`) on two buffers,
which forms the scale mixtures of two steps by one matrix product;
:func:`apply_filter` is its one-row case. Both products go SLAB columns
at a time.
"""

import functools

import numpy as np

from .frame import FrameCoefficients, require_partition
from .signals import as_signal

# Chebyshev vectors held by the analysis recurrence and added into every
# scale by one matrix product. 16 would add 24 MB of peak RSS on a 500x500
# grid for little speed.
RING = 4
# Columns per slab of that product and of the synthesis's two-step mixtures:
# the temporary then stays in cache instead of taking signal-sized arrays.
# The analysis's product is 2.5x faster at 10^6 nodes than one product over
# all columns. 4096 times the same as 8192 on the 300x300 and 500x500 grids,
# and keeps the temporary within 0.3 signal vectors on the first, where it
# sets the weight estimate's peak.
SLAB = 4096


def jackson_damping(K):
    """Damping multipliers g_0..g_K, with g_0 = 1.

    g_i = sin((i+1) a) / ((K+2) sin a) + (1 - (i+1)/(K+2)) cos(i a)
    where a = pi / (K + 2).
    """
    if K < 0:
        raise ValueError("K must be nonnegative")
    a = np.pi / (K + 2)
    i = np.arange(K + 1)
    return (np.sin((i + 1) * a) / ((K + 2) * np.sin(a))
            + (1.0 - (i + 1) / (K + 2)) * np.cos(i * a))


def chebyshev_coefficients(rho, interval_ub, K):
    """Chebyshev coefficients of the shifted filter by Gauss quadrature.

    theta_i = (2 - 1{i=0}) / M * sum_m rho~(cos t_m) cos(i t_m) over the
    M = 4 (K + 1) Chebyshev nodes t_m = pi (m - 1/2) / M, where rho~(x) =
    rho(interval_ub / 2 * (x + 1)) lives on [-1, 1]; the nodes are
    oversampled so the kinked band filters do not alias. rho may return one
    row per filter; the rows then share the nodes and the cosine table, and
    the result has one row of K + 1 coefficients per filter.
    """
    if K < 0:
        raise ValueError("K must be nonnegative")
    M = 4 * (K + 1)
    t = np.pi * (np.arange(1, M + 1) - 0.5) / M
    x = np.cos(t)
    vals = np.asarray(rho(interval_ub / 2.0 * (x + 1.0)), dtype=np.float64)
    finite = np.isfinite(vals)
    if not finite.all():
        bad = interval_ub / 2.0 * (x[np.nonzero(~finite)[-1][0]] + 1.0)
        raise ValueError(f"filter produced a non-finite value at x={bad}")
    cos_table = (2.0 / M) * np.cos(np.outer(np.arange(K + 1), t))
    # one matrix-vector product per row, so that a row's coefficients are
    # bitwise those of a one-row call; one product over all rows is not
    theta = np.stack([cos_table @ v for v in np.atleast_2d(vals)])
    theta[:, 0] *= 0.5
    return theta.reshape(vals.shape[:-1] + (K + 1,))


def band_coefficients(L, pou, K, jackson=True):
    """Coefficients of the frame's filters on [0, L.lambda_ub], (J + 1, K + 1).

    One row per scale, damped when jackson is enabled. The rows are
    computed once per partition, K, interval and damping; the array
    returned is read-only, so no caller can change what later transforms
    use. A partition built for another bound is refused: its bands do not
    sum to 1 on the operator's interval.
    """
    require_partition(L, pou)
    return _band_coefficients(pou, K, L.lambda_ub, bool(jackson))


@functools.lru_cache
def _band_coefficients(pou, K, interval_ub, jackson):
    theta = chebyshev_coefficients(pou.sqrt_bands, interval_ub, K)
    if jackson:
        theta *= jackson_damping(K)
    theta.flags.writeable = False
    return theta


@functools.lru_cache
def _dual_coefficients(pou, K, interval_ub, jackson):
    """Read-only coefficients of the canonical dual's filters q_j = p_j / S,
    (J + 1, K + 1), with p_j the band polynomials, damped when jackson is
    set, and S = sum_j p_j^2, so that sum_j q_j p_j = 1 on the interval.
    S measured above 0.2 at every K from 0 to 100, and 0.84 at K = 100.
    """
    theta = _band_coefficients(pou, K, interval_ub, jackson)

    def dual(lam):
        p = np.polynomial.chebyshev.chebval(2.0 * lam / interval_ub - 1.0,
                                            theta.T)
        return p / np.sum(p * p, axis=0)

    q = chebyshev_coefficients(dual, interval_ub, K)
    q.flags.writeable = False
    return q


def _analysis(L, theta, f, ring=None, y=None):
    """theta @ [T_0(Lt) f, ..., T_K(Lt) f], one row per filter, in K
    matvecs, with Lt = (2 / L.lambda_ub) L - I.

    The Chebyshev vectors go round a ring of RING rows; each time the ring
    is full, one matrix product, taken SLAB columns at a time, adds it into
    every row of the result. The ring, (min(RING, K + 1), n), and the
    result, one row per filter, are new arrays unless given, to be written
    over: a loop of transforms then allocates them once.
    """
    K = theta.shape[1] - 1
    if ring is None:
        ring = np.empty((min(RING, K + 1), L.n))
    if y is None:
        y = np.zeros((theta.shape[0], L.n))
    else:
        y.fill(0.0)
    for k in range(K + 1):
        t = ring[k % RING]
        if k == 0:
            t[:] = f
        elif k == 1:  # T_1 = Lt f, half a step from T_0 alone
            L.matvec(f, out=t, step=True)
            t *= 0.5
        else:
            L.matvec(ring[(k - 1) % RING], out=t, prev=ring[(k - 2) % RING],
                     step=True)
        if k % RING == RING - 1 or k == K:
            k0 = k - k % RING
            _gemm_add(theta[:, k0:k + 1], ring[:k - k0 + 1], y)
    return y


def _gemm_add(a, b, out):
    """out += a @ b, one matrix product per SLAB columns, so that b is read
    once for every row of out."""
    for s in range(0, out.shape[1], SLAB):
        out[:, s:s + SLAB] += a @ b[:, s:s + SLAB]


def _clenshaw(L, theta, blocks):
    """sum_k T_k(Lt) u_k with u_k = theta[:, k] @ blocks, in K + 1 matvecs,
    with Lt = (2 / L.lambda_ub) L - I.

    Clenshaw's recurrence b_k = 2 Lt b_(k+1) - b_(k+2) + u_k runs in place
    on two buffers, b_k in row k % 2 of b; the sum is Lt b_1 - b_2 + u_0.
    The mixtures come two steps at a time: after the step that leaves
    2 Lt b_(k+1) - b_(k+2) in one row, one product adds u_k into it and
    takes u_(k-1) from the other row, which holds b_(k+1). The next step
    reads that row only as prev, so it yields b_(k-1) complete.
    """
    K = theta.shape[1] - 1
    b = np.zeros((2, L.n))
    pair = np.empty((2, theta.shape[0]))
    for k in range(K, 0, -1):
        L.matvec(b[(k + 1) % 2], out=b[k % 2], prev=b[k % 2], step=True)
        if (K - k) % 2 == 0:
            pair[k % 2], pair[(k + 1) % 2] = theta[:, k], -theta[:, k - 1]
            _gemm_add(pair, blocks, b)
    if K % 2 == 0:  # u_0 had no pair
        _gemm_add(-theta[:, :1].T, blocks, b[:1])
    # Lt b_1 - (b_2 - u_0) is half a step applied to 2 (b_2 - u_0); halving
    # is exact
    b[0] *= 2.0
    L.matvec(b[1], out=b[0], prev=b[0], step=True)
    return 0.5 * b[0]


def apply_filter(L, rho, f, K=100, jackson=True):
    """Apply the filter rho(L), expanded to degree K on [0, L.lambda_ub],
    with the Clenshaw recurrence.

    Performs exactly K + 1 Laplacian matvecs. The shifted operator
    Lt = (2 / L.lambda_ub) L - I is applied through the operator's step and
    is never formed here.
    """
    theta = chebyshev_coefficients(rho, L.lambda_ub, K)
    if jackson:
        theta = theta * jackson_damping(K)
    return _clenshaw(L, theta[None], as_signal(f, L.n)[None])


def sgwt_forward_fast(L, f, pou, K=100, jackson=True):
    """Approximate analysis transform, all scales in one recurrence.

    The Chebyshev vectors T_k(Lt) f are generated once by the three-term
    recurrence (K matvecs) and accumulated into every scale with that
    scale's coefficients, so adding scales costs O(nK) each, not O(mK).
    """
    f = as_signal(f, L.n)
    theta = band_coefficients(L, pou, K, jackson)
    return FrameCoefficients(_analysis(L, theta, f).ravel(), L.n, pou.J)


def sgwt_inverse_fast(L, coeffs, pou, K=100, jackson=True):
    """Approximate synthesis transform through the canonical dual frame,
    fused over scales.

    Runs one Clenshaw recurrence whose scalar coefficients are replaced by
    the mixtures u_k = sum_j q_jk eta_j of the dual rows q
    (:func:`_dual_coefficients`), formed two steps at a time, which equals
    summing the per-scale dual filter applications but costs K + 1 matvecs
    total.
    """
    if coeffs.n != L.n or coeffs.J != pou.J:
        raise ValueError("coefficient dimensions do not match operator/partition")
    require_partition(L, pou)
    theta = _dual_coefficients(pou, K, L.lambda_ub, bool(jackson))
    return _clenshaw(L, theta, coeffs.as_blocks())
