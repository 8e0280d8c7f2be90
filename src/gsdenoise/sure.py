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

import zipfile
from dataclasses import dataclass, fields

import numpy as np

from . import chebyshev
from .signals import (dot, require_choice, require_count, require_flag,
                      require_positive, require_weights)

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


def draw_probe(n, dist, seed, k):
    """Probe vector number k, counter-based so draws are order-independent.

    The generator is keyed by (seed, k), so probe k is the same whether N was
    5 or 50 and runs can be extended or parallelized deterministically.
    """
    require_choice("distribution", dist, DISTRIBUTIONS)
    require_count("seed", seed, least=0)
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


# a weight cache's provenance keys; each key's type is its WeightEstimate
# field's
CACHE_KEYS = ("n", "J", "K", "jackson", "N", "distribution", "seed", "pou",
              "variant", "graph_hash")
_TYPES = {field.name: field.type for field in fields(WeightEstimate)}


def estimate_diagonal_weights(L, pou, K=100, jackson=True, N=2,
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

# the keys of a weight cache's graph section: the SHA-256 of the edge-list
# file's bytes, then graph_edges' (u, v, w, labels), the labels as one
# newline-joined UTF-8 byte blob
GRAPH_KEYS = ("graph_sha256", "edge_u", "edge_v", "edge_w", "labels")
_EXPECTED = {int: "an integer", str: "a string", bool: "0 or 1"}


def save_weights(path, est, graph=None):
    """Write the weight estimate to path as one uncompressed npz: diag and
    each provenance field of ``CACHE_KEYS``, jackson as 0 or 1.

    With graph, a ``(sha256, edges)`` pair, the cache also keeps the graph
    the estimate was made on: the hex SHA-256 of its edge-list file's bytes
    and the ``graph.graph_edges`` of the graph read from that file, whose
    labels are strings with no newline, as ``read_edgelist`` gives them.
    """
    arrays = {key: np.asarray(getattr(est, key)) for key in CACHE_KEYS}
    arrays.update(diag=est.diag, jackson=np.asarray(int(est.jackson)))
    if graph is not None:
        sha256, (u, v, w, labels) = graph
        arrays.update(zip(GRAPH_KEYS, (
            np.asarray(sha256), u, v, w,
            np.frombuffer("\n".join(labels).encode(), dtype=np.uint8))))
    # through the open file: np.savez adds .npz to a path that lacks it
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _read_cache(path, keys):
    """The arrays of the npz weight cache at path under those of keys that
    it holds, by key."""
    with open(path, "rb") as fh:
        if fh.read(4) != b"PK\x03\x04":
            raise ValueError(
                f"weight cache {path} is not an npz file; caches of the "
                "earlier text format are no longer read: rerun "
                "`gsdenoise weights`")
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as z:
                return {key: z[key] for key in keys if key in z.files}
        except (zipfile.BadZipFile, EOFError, ValueError) as exc:
            raise ValueError(f"weight cache {path} is damaged: {exc}") \
                from None


def _array(path, arrays, key):
    if key not in arrays:
        raise ValueError(f"weight cache {path} missing field {key!r}")
    return arrays[key]


def _scalar(path, arrays, key, kind):
    """The value of a cache's 0-d array under key, refused unless it is of
    kind: int, str, or bool for an integer 0 or 1."""
    a = _array(path, arrays, key)
    value = a.item() if a.ndim == 0 else a
    if not (type(value) is int and value in (0, 1) if kind is bool
            else type(value) is kind):
        raise ValueError(f"weight cache {path}: {key} must be "
                         f"{_EXPECTED[kind]}, got {value!r}")
    return kind(value)


def _graph_section(path, arrays, n):
    """A cache's (sha256, (u, v, w, labels)), each edge checked for
    u < v < n and a positive finite weight, and the labels counted."""
    sha256 = _scalar(path, arrays, "graph_sha256", str)
    u, v, w, blob = (_array(path, arrays, key) for key in GRAPH_KEYS[1:])
    if not (u.dtype == v.dtype and u.dtype in (np.int32, np.int64)
            and w.dtype == np.float64 and blob.dtype == np.uint8
            and u.ndim == v.ndim == w.ndim == blob.ndim == 1
            and u.size == v.size == w.size):
        raise ValueError(f"weight cache {path}: edge_u and edge_v must be "
                         "int32 or int64 and edge_w float64 vectors of one "
                         "length, and labels a uint8 vector")
    bad = (u >= v) | (u < 0) | (v >= n) | ~((w > 0) & (w < np.inf))
    if bad.any():
        e = int(np.argmax(bad))
        raise ValueError(f"weight cache {path}: edge {e} ({int(u[e])}, "
                         f"{int(v[e])}, {float(w[e])!r}) does not have "
                         f"0 <= u < v < n = {n} and a positive finite "
                         "weight")
    try:
        labels = blob.tobytes().decode().split("\n")
    except UnicodeDecodeError as exc:
        raise ValueError(f"weight cache {path}: labels: {exc}") from None
    if len(labels) != n:
        raise ValueError(f"weight cache {path}: {len(labels)} labels for "
                         f"n = {n} nodes")
    return sha256, (u, v, w, labels)


def load_weights(path, return_graph=False):
    """Read a weight cache written by :func:`save_weights`.

    Every key must be there, each provenance field a 0-d array of its
    ``WeightEstimate`` field's type (jackson 0 or 1) and diag a float64
    vector of n(J+1) finite nonnegative entries; the file is named in each
    refusal. A file that is no npz, such as a cache of the earlier text
    format, is refused with a message to rerun ``gsdenoise weights``.

    With return_graph, returns ``(estimate, graph)``: graph the cache's
    ``(sha256, (u, v, w, labels))``, checked, or None for a cache with no
    graph section. Otherwise the graph section is not read.
    """
    arrays = _read_cache(path, ("diag", *CACHE_KEYS)
                         + (GRAPH_KEYS if return_graph else ()))
    meta = {key: _scalar(path, arrays, key, _TYPES[key])
            for key in CACHE_KEYS}
    diag = _array(path, arrays, "diag")
    if diag.dtype != np.float64 or diag.ndim != 1:
        raise ValueError(f"weight cache {path}: diag must be a float64 "
                         "vector")
    try:
        est = WeightEstimate(diag, **meta)
    except ValueError as exc:
        raise ValueError(f"weight cache {path}: {exc}") from None
    if not return_graph:
        return est
    return est, (_graph_section(path, arrays, est.n)
                 if GRAPH_KEYS[0] in arrays else None)
