"""Monte-Carlo estimation of the SURE divergence weights.

White noise pushed through the analysis operator W is correlated, so the
divergence term of Stein's unbiased risk estimate is weighted by the Gram
diagonal gamma2_ii = (W W*)_ii. Those weights are estimated without any
eigendecomposition by averaging transforms of unit-variance probe vectors:
gamma2_ij ~= (1/N) sum_k (W eps_k)_i (W eps_k)_j. Rademacher probes have
eps^2 = 1 exactly, which removes one variance term and beats Gaussian
probes at every sample size. Exact small-graph oracles for the weights and
for both closed-form variance expressions live here too.
"""

import numbers
from dataclasses import MISSING, dataclass, fields

import numpy as np

from . import chebyshev
from .signals import (dot, read_signal, require_choice, require_count,
                      require_flag, require_positive, require_weights,
                      write_signal)

DISTRIBUTIONS = ("rademacher", "gaussian")
# everything a weight estimate depends on, by WeightEstimate's field names
WEIGHT_FINGERPRINT = ("graph={graph_hash},variant={variant},pou={pou},K={K},"
                      "jackson={jackson:d},N={N},dist={distribution},"
                      "seed={seed}")
SURE_VARIANCE_CAP = 150  # the most coefficients, n(J+1), for that oracle


def _eps_sq_moments(dist):
    """(V[eps^2], E[eps^2]^2) for a unit-variance probe distribution."""
    require_choice("distribution", dist, DISTRIBUTIONS)
    return (0.0, 1.0) if dist == "rademacher" else (2.0, 1.0)


def require_probes(N, dist):
    """Refuse a probe count that is not an integer of at least 1, or an
    unknown probe distribution."""
    require_count("N", N)
    require_choice("distribution", dist, DISTRIBUTIONS)


def require_seed(seed):
    """Refuse a probe seed that is not a nonnegative integer. A bool is not
    a seed; numpy integers are."""
    if (isinstance(seed, bool) or not isinstance(seed, numbers.Integral)
            or seed < 0):
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")


def draw_probe(n, dist, seed, k):
    """Probe vector number k, counter-based so draws are order-independent.

    The generator is keyed by (seed, k), so probe k is the same whether N was
    5 or 50 and runs can be extended or parallelized deterministically.
    """
    require_choice("distribution", dist, DISTRIBUTIONS)
    require_seed(seed)
    rng = np.random.default_rng(np.random.SeedSequence((seed, k)))
    if dist == "rademacher":
        return 2.0 * rng.integers(0, 2, size=n).astype(np.float64) - 1.0
    return rng.standard_normal(n)


@dataclass(eq=False)
class WeightEstimate:
    """Monte-Carlo Gram diagonal with full provenance.

    Every entry is a mean of squares, hence nonnegative; with the exact
    transform on a symmetric Laplacian variant the entries sum to n in
    expectation (the tight-frame trace identity; the random-walk variant
    satisfies it in the degree-weighted inner product instead). The
    spectral bound the estimate was made with is part of ``pou``.
    """

    diag: np.ndarray
    n: int
    J: int
    N: int
    distribution: str
    seed: int
    K: int
    jackson: bool
    pou: str = ""
    variant: str = ""
    graph_hash: str = ""

    def __post_init__(self):
        self.diag = np.ascontiguousarray(self.diag, dtype=np.float64)
        if self.diag.shape != (self.n * (self.J + 1),):
            raise ValueError("weight vector length does not match n(J+1)")
        require_weights(self.diag)

    def fingerprint(self):
        return WEIGHT_FINGERPRINT.format_map(vars(self))


# a weight cache's header keys, in file order; each key's type, and whether
# it is required, is its WeightEstimate field's
CACHE_KEYS = ("n", "J", "K", "jackson", "N", "distribution", "seed", "pou",
              "variant", "graph_hash")
_FIELDS = {field.name: field for field in fields(WeightEstimate)
           if field.name != "diag"}


def estimate_diagonal_weights(L, pou, K=100, jackson=True, N=5,
                              dist="rademacher", seed=0, graph_hash=""):
    """Monte-Carlo Gram diagonal, O(N (mK + n(J+1)K)) with the fast transform.

    The N K Chebyshev steps of the fast probe transforms run inside
    ``L.assembled``, over the operator's weights scaled for the step, so
    that no step scales its input: for the unnormalized variant a copy
    made once here and dropped on return, for the others the operator's
    own. Each probe's transform is that of
    ``chebyshev.sgwt_forward_fast``, written over one ring and one set of
    J + 1 outputs, allocated once here. jackson must be a bool, as the
    estimate's fingerprint and cache record it as one.
    """
    require_probes(N, dist)
    require_flag("jackson", jackson)
    theta = chebyshev.band_coefficients(L, pou, K, jackson)
    with L.assembled():
        ring = np.empty((min(chebyshev.RING, K + 1), L.n))
        w = np.empty((pou.J + 1, L.n))
        acc = np.zeros(w.size)
        for k in range(N):
            chebyshev._analysis(L, theta, draw_probe(L.n, dist, seed, k),
                                ring, w)
            acc += np.square(w, out=w).ravel()
    return WeightEstimate(acc / N, L.n, pou.J, N, dist, seed, K, jackson,
                          pou=pou.fingerprint(), variant=L.variant,
                          graph_hash=graph_hash)


def exact_weights(frame_matrix):
    """Gram matrix (W W*)_ij of a dense analysis operator."""
    return frame_matrix @ frame_matrix.T


def sure_value(coeffs, thresholded, derivs, sigma, weights_diag):
    """Stein unbiased risk estimate for a coordinate-wise thresholding map.

    -n sigma^2 + ||h(F) - F||^2 + 2 sigma^2 sum_i gamma2_ii d_i h_i(F),
    where n is the node count (not the coefficient count), from the
    coefficients F and h(F), both FrameCoefficients, and the derivatives
    d_i h_i(F) (``threshold.js_derivative`` per scale). The residual is
    summed one scale block at a time, into one signal-sized buffer.

    The reference for the SURE that ``select_thresholds_sure`` returns
    from the objectives it minimised, which a request reports instead.
    """
    require_positive("sigma", sigma)
    vals = coeffs.values
    thr = thresholded.values
    derivs = np.asarray(derivs, dtype=np.float64)
    weights_diag = np.asarray(weights_diag, dtype=np.float64)
    if not (vals.shape == thr.shape == derivs.shape == weights_diag.shape):
        raise ValueError("coefficients, thresholded values, derivatives and "
                         "weights must all have length n(J+1)")
    n = coeffs.n
    resid = np.empty(n)
    loss = 0.0
    for s in range(0, vals.size, n):
        np.subtract(thr[s:s + n], vals[s:s + n], out=resid)
        loss += dot(resid, resid)
    return (-n * sigma ** 2 + loss
            + 2.0 * sigma ** 2 * dot(weights_diag, derivs))


def gamma_variance_exact(frame_matrix, dist, N, i, j):
    """Closed-form variance of the Monte-Carlo weight estimate gamma2_ij.

    (1/N) { V[eps^2] sum_p W_ip^2 W_jp^2
            + 2 E[eps^2]^2 sum_{p != q} W_ip W_iq W_jp W_jq }.
    """
    v_eps2, e_eps2_sq = _eps_sq_moments(dist)
    wi = frame_matrix[i]
    wj = frame_matrix[j]
    s_diag = float(np.sum(wi ** 2 * wj ** 2))
    cross = float(wi @ wj) ** 2 - s_diag  # sum over p != q
    return (v_eps2 * s_diag + 2.0 * e_eps2_sq * cross) / N


def sure_variance_exact(frame_matrix, derivs, sigma, dist, N):
    """Closed-form conditional variance of the plug-in SURE.

    derivs is the Jacobian d_j h_i as a matrix (diagonal for coordinate-wise
    thresholding). The quadruple sum over coefficients collapses through
    C = W^T A W:

      (4 sigma^4 / N) [ V[eps^2] sum_p C_pp^2
                        + E[eps^2]^2 (||C||_F^2 - sum_p C_pp^2)
                        + E[eps^2]^2 (tr(C^2) - sum_p C_pp^2) ].
    """
    F = np.asarray(frame_matrix, dtype=np.float64)
    if F.shape[0] > SURE_VARIANCE_CAP:
        raise ValueError(f"sure variance oracle refused for n(J+1)="
                         f"{F.shape[0]} > {SURE_VARIANCE_CAP}")
    A = np.asarray(derivs, dtype=np.float64)
    if A.ndim == 1:
        A = np.diag(A)
    v_eps2, e_eps2_sq = _eps_sq_moments(dist)
    C = F.T @ A @ F
    diag_sq = float(np.sum(np.diag(C) ** 2))
    frob = float(np.sum(C * C))
    tr_c2 = float(np.sum(C * C.T))
    return (4.0 * sigma ** 4 / N) * (
        v_eps2 * diag_sq
        + e_eps2_sq * (frob - diag_sq)
        + e_eps2_sq * (tr_c2 - diag_sq))


# ---------------------------------------------------------------------------
# weight cache files

def save_weights(path, est):
    """Write the weight estimate as a signal file with its provenance
    header."""
    header = {key: getattr(est, key) for key in CACHE_KEYS}
    header["jackson"] = int(est.jackson)  # read back through int
    write_signal(path, est.diag, header=header)


def load_weights(path):
    """Read a weight cache written by :func:`save_weights`.

    The cache is a signal file; each header value is converted to its
    ``WeightEstimate`` field's type. Other header keys, such as the
    ``lambda_ub`` line of caches written when the estimate carried its
    bound, are ignored.
    """
    values, header = read_signal(path)
    meta = {}
    for key, field in _FIELDS.items():
        if key in header:
            if field.type is bool and header[key] not in ("0", "1"):
                raise ValueError(f"weight cache {path}: {key} must be 0 or "
                                 f"1, got {header[key]!r}")
            meta[key] = header[key] == "1" if field.type is bool \
                else field.type(header[key])
        elif field.default is MISSING:
            raise ValueError(f"weight cache {path} missing header field "
                             f"{key!r}")
    return WeightEstimate(values, **meta)
