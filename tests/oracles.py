"""References shared by the tests: exact-transform ones for the statistical
tests, and an edge-list construction of the grid graph."""

import functools

import numpy as np

from gsdenoise.frame import exact_eigendecomposition, sgwt_forward_exact
from gsdenoise.graph import SparseGraph
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


def grid_graph_reference(rows, cols):
    """The 4-neighbor lattice built from its int64 edge list: both
    directions of every edge, sorted by (row, column) with np.lexsort, the
    offsets from a count of the rows, then narrowed by SparseGraph."""
    idx = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    u = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    v = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    r = np.concatenate([u, v])
    c = np.concatenate([v, u])
    order = np.lexsort((c, r))
    n = rows * cols
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(r, minlength=n), out=offsets[1:])
    return SparseGraph(n, offsets, c[order], np.ones(r.size))
