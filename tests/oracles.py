"""Exact-transform references shared by the statistical tests."""

import functools

import numpy as np

from gsdenoise.frame import exact_eigendecomposition, sgwt_forward_exact
from gsdenoise.sure import draw_probe
from gsdenoise.threshold import apply_policy, js_derivative


@functools.lru_cache(maxsize=4)
def _eigendecomposition(L):
    return exact_eigendecomposition(L)


def exact_probe_weights(L, pou, N=10, dist="rademacher", seed=0):
    """Monte-Carlo Gram diagonal through the exact transform.

    Averages (W e_k)^2 over the probes e_k = draw_probe(n, dist, seed, k)
    that estimate_diagonal_weights draws, with W the eigendecomposition's
    analysis operator, so the expectation is the exact weights. The
    eigendecomposition is computed once per operator.
    """
    eig = _eigendecomposition(L)
    acc = np.zeros(L.n * (pou.J + 1))
    for k in range(N):
        w = sgwt_forward_exact(L, draw_probe(L.n, dist, seed, k), pou,
                               eig=eig).values
        acc += np.square(w, out=w)
    return acc / N


def shrink_with_derivatives(coeffs, policy):
    """(apply_policy(coeffs, policy), the derivative of each coefficient's
    shrinkage), the inputs of sure_value. The derivatives come from
    js_derivative scale by scale, through the same shrinkage routine as
    the thresholded values, so they are bitwise the slopes at those
    values."""
    derivs = np.concatenate([js_derivative(coeffs.block(j), t, policy.beta)
                             for j, t in enumerate(policy.thresholds)])
    return apply_policy(coeffs, policy), derivs
