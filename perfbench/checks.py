"""Correctness checks applied to every benchmark request.

Each check compares a request's output against a computation made here,
apart from gsdenoise, or against a property the method must have. A check
raises CheckFailed with a message naming what was wrong; the benchmark
counts the request as failed.
"""

import math

import numpy as np
from scipy.special import ndtr

# Few-standard-error band for the sampled noise level.
NOISE_Z = 5.0
# Tight-frame identities hold to a few percent with K=100 and N=10 probes.
FRAME_TOL = 0.03
# SURE against the true coefficient loss: unbiased, but it carries
# Monte-Carlo weight error and sampling noise of a few percent.
SURE_LOSS_TOL = 0.06
# SURE recomputed here differs from the program's only by summation order.
SURE_VALUE_RTOL = 1e-9


class CheckFailed(AssertionError):
    """A request's output failed a correctness check."""


class SureOffLoss(CheckFailed):
    """The reported SURE is more than SURE_LOSS_TOL off the true loss."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def analytic_mechanism(sigma, epsilon, delta, sensitivity=1.0):
    """The analytic Gaussian mechanism condition holds at sigma.

    Phi(D/(2s) - eps s/D) - e^eps Phi(-D/(2s) - eps s/D) <= delta, with
    Phi evaluated by scipy's ndtr.
    """
    s = sigma / sensitivity
    value = (ndtr(1.0 / (2.0 * s) - epsilon * s)
             - math.exp(epsilon) * ndtr(-1.0 / (2.0 * s) - epsilon * s))
    require(value <= delta * (1.0 + 1e-9),
            f"analytic condition {value!r} exceeds delta={delta} at "
            f"sigma={sigma!r}, epsilon={epsilon}")


def noise_level(clean, noisy, sigma):
    """The injected noise has mean 0 and standard deviation sigma, within a
    few standard errors."""
    e = np.asarray(noisy) - np.asarray(clean)
    n = e.size
    sd = float(e.std(ddof=1))
    require(abs(sd - sigma) <= NOISE_Z * sigma / math.sqrt(2.0 * (n - 1)),
            f"noise standard deviation {sd} is not sigma={sigma}")
    mean = float(e.mean())
    require(abs(mean) <= NOISE_Z * sigma / math.sqrt(n),
            f"noise mean {mean} is not 0 (sigma={sigma})")


def grid_lambda_max(rows, cols):
    """Largest eigenvalue of the unnormalized Laplacian of a rows x cols
    4-neighbour grid, in closed form."""
    return (4.0 * math.sin(math.pi * (rows - 1) / (2.0 * rows)) ** 2
            + 4.0 * math.sin(math.pi * (cols - 1) / (2.0 * cols)) ** 2)


def edgelist_normalized_lambda_max(path):
    """Upper estimate of the largest eigenvalue of the normalized Laplacian
    of the graph in an edge-list file with integer node labels.

    The matrix is built here from the file, and the Lanczos Ritz value is
    raised by its residual norm, so the result is not below lambda_max.
    """
    import scipy.sparse as sp  # only here, to keep it out of grid RSS
    from scipy.sparse.linalg import eigsh

    u, v, w = np.loadtxt(path, comments="#", unpack=True, ndmin=2)
    u = u.astype(np.int64)
    v = v.astype(np.int64)
    n = int(max(u.max(), v.max())) + 1
    A = sp.coo_matrix((np.concatenate([w, w]),
                       (np.concatenate([u, v]), np.concatenate([v, u]))),
                      shape=(n, n)).tocsr()
    isd = sp.diags(1.0 / np.sqrt(np.asarray(A.sum(axis=1)).ravel()))
    lap = (sp.identity(n, format="csr") - isd @ A @ isd).tocsr()
    vals, vecs = eigsh(lap, k=1, which="LA", tol=1e-10)
    x = vecs[:, 0]
    resid = float(np.linalg.norm(lap @ x - vals[0] * x))
    return float(vals[0]) + resid


def spectral_bound(lambda_ub, lambda_max, normalized=False):
    """lambda_ub bounds the spectrum from above (and is at most 2 for the
    normalized variant)."""
    require(lambda_ub >= lambda_max,
            f"lambda_ub={lambda_ub!r} is below lambda_max={lambda_max!r}")
    if normalized:
        require(lambda_ub <= 2.0,
                f"normalized lambda_ub={lambda_ub!r} exceeds 2")


def matvec_counts(K, forward, inverse, N=None, weights=None):
    """K matvecs forward, K+1 inverse and N*K for the weights."""
    require(forward == K, f"forward used {forward} matvecs, expected K={K}")
    require(inverse == K + 1,
            f"inverse used {inverse} matvecs, expected K+1={K + 1}")
    if weights is not None:
        require(weights == N * K,
                f"weights used {weights} matvecs, expected N*K={N * K}")


def tight_frame(coeffs, signal, weights_diag, n):
    """||W f||^2 / ||f||^2 and sum(weights) / n are close to 1."""
    signal = np.asarray(signal)
    ratio = float(coeffs @ coeffs) / float(signal @ signal)
    require(abs(ratio - 1.0) <= FRAME_TOL,
            f"energy ratio ||Wf||^2/||f||^2 = {ratio}")
    trace = float(np.sum(weights_diag)) / n
    require(abs(trace - 1.0) <= FRAME_TOL, f"sum(weights)/n = {trace}")


def js_shrink(x, t, beta):
    """James-Stein shrinkage h(x) and its derivative, written out here.

    h(x) = x (1 - (t/|x|)^beta) for |x| > t and 0 otherwise; the
    derivative is 1 + (beta - 1)(t/|x|)^beta beyond t, beta at |x| = t > 0
    and 0 elsewhere.
    """
    absx = np.abs(x)
    h = np.zeros_like(x)
    d = np.zeros_like(x)
    live = absx > t
    r = (t / absx[live]) ** beta
    h[live] = x[live] * (1.0 - r)
    d[live] = 1.0 + (beta - 1.0) * r
    if t > 0:
        d[absx == t] = beta
    return h, d


def shrink_all(coeffs, n, thresholds, beta):
    """Shrink each scale block of the scale-major coefficient vector."""
    h = np.empty_like(coeffs)
    for j, t in enumerate(thresholds):
        sl = slice(j * n, (j + 1) * n)
        h[sl] = js_shrink(coeffs[sl], t, beta)[0]
    return h


def sure_value(reported, coeffs, n, weights_diag, sigma, beta, thresholds):
    """The reported SURE equals the James-Stein SURE formula evaluated here
    at the reported thresholds:
    -n sigma^2 + ||h(F) - F||^2 + 2 sigma^2 sum_i w_i h_i'(F_i)."""
    require(len(thresholds) * n == coeffs.size,
            f"{len(thresholds)} thresholds for {coeffs.size // n} scales")
    mine = -n * sigma ** 2
    for j, t in enumerate(thresholds):
        sl = slice(j * n, (j + 1) * n)
        h, d = js_shrink(coeffs[sl], t, beta)
        h -= coeffs[sl]
        mine += float(h @ h) + 2.0 * sigma ** 2 * float(weights_diag[sl] @ d)
    scale = max(abs(mine), n * sigma ** 2)
    require(abs(reported - mine) <= SURE_VALUE_RTOL * scale,
            f"reported SURE {reported!r} differs from {mine!r}")


def sure_vs_loss(reported, coeffs, clean_coeffs, n, beta, thresholds):
    """The reported SURE is within a few percent of the true coefficient
    loss ||h(F) - W f||^2."""
    loss = 0.0
    for j, t in enumerate(thresholds):
        sl = slice(j * n, (j + 1) * n)
        h = js_shrink(coeffs[sl], t, beta)[0]
        h -= clean_coeffs[sl]
        loss += float(h @ h)
    if abs(reported - loss) > SURE_LOSS_TOL * loss:
        raise SureOffLoss(f"SURE {reported!r} is "
                          f"{100 * (reported / loss - 1):+.2f}% off the loss "
                          f"{loss!r}")


def snr_db(reference, estimate):
    err = np.linalg.norm(reference - estimate)
    return 20.0 * math.log10(np.linalg.norm(reference) / err)


def estimate(clean, noisy, est):
    """The estimate has length n, is finite and is closer to the clean
    signal than the noisy input; returns (snr_in, snr_out) in dB."""
    est = np.asarray(est)
    require(est.shape == clean.shape,
            f"estimate has shape {est.shape}, expected {clean.shape}")
    require(bool(np.all(np.isfinite(est))), "estimate has non-finite values")
    snr_in = snr_db(clean, noisy)
    snr_out = snr_db(clean, est)
    require(snr_out > snr_in,
            f"output SNR {snr_out:.3f} dB not above input {snr_in:.3f} dB")
    return snr_in, snr_out


def same_estimate(est, expected):
    """An estimate read back from a file equals the recomputation from the
    reported thresholds."""
    est = np.asarray(est)
    require(est.shape == expected.shape,
            f"estimate has shape {est.shape}, expected {expected.shape}")
    err = float(np.max(np.abs(est - expected)))
    require(err <= 1e-9 * float(np.max(np.abs(expected))),
            f"estimate differs from the recomputation by {err}")
