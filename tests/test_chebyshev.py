"""Chebyshev filter expansions and the fast transforms built on them."""

import tracemalloc

import numpy as np
import pytest

from gsdenoise.chebyshev import (
    SLAB,
    _clenshaw,
    apply_filter,
    band_expansions,
    chebyshev_coefficients,
    filter_expansion,
    jackson_damping,
    sgwt_forward_fast,
    sgwt_inverse_fast,
)
from gsdenoise.frame import (
    PartitionOfUnity,
    sgwt_forward_exact,
    sgwt_inverse_exact,
)
from gsdenoise.graph import grid_graph, laplacian, random_connected_graph, \
    random_geometric_graph


def test_coefficients_of_constant():
    theta = chebyshev_coefficients(lambda x: np.full_like(x, 3.0), 2.0, 5)
    assert theta[0] == pytest.approx(3.0, abs=1e-12)
    assert np.all(np.abs(theta[1:]) <= 1e-12)


def test_coefficients_of_identity_on_unit_spectral_width():
    # shifted variable: x on [0, 2] becomes cos-theta + 1, two terms exactly
    theta = chebyshev_coefficients(lambda x: x, 2.0, 4)
    assert theta[0] == pytest.approx(1.0, abs=1e-12)
    assert theta[1] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.abs(theta[2:]) <= 1e-12)


def test_coefficients_of_square():
    theta = chebyshev_coefficients(lambda x: x * x, 2.0, 4)
    assert theta[:3] == pytest.approx([1.5, 2.0, 0.5], abs=1e-12)
    assert np.all(np.abs(theta[3:]) <= 1e-12)


def test_nonfinite_filter_names_the_abscissa():
    with pytest.raises(ValueError, match="non-finite value at x="):
        chebyshev_coefficients(lambda x: np.full_like(x, np.inf), 2.0, 3)


def test_jackson_weights_shape():
    g = jackson_damping(6)
    assert g[0] == pytest.approx(1.0, abs=1e-12)
    assert np.argmax(g) == 0
    assert np.all(g > 0) and np.all(g <= 1.0)


def test_interval_is_two_for_spectrum_normalizing_variants():
    g = random_connected_graph(15, seed=0)
    assert laplacian(g, "normalized").interval == 2.0
    assert laplacian(g, "random_walk").interval == 2.0
    Lu = laplacian(g, "unnormalized")
    assert Lu.interval == Lu.lambda_ub


def test_apply_constant_filter_is_scaling():
    g = random_connected_graph(25, seed=3)
    L = laplacian(g, "unnormalized")
    exp = filter_expansion(lambda x: np.full_like(x, 2.5), L, 8)
    f = np.random.default_rng(0).standard_normal(g.n)
    assert np.allclose(apply_filter(L, exp, f), 2.5 * f, atol=1e-12)


def test_apply_identity_filter_reproduces_operator():
    g = random_connected_graph(25, seed=3)
    L = laplacian(g, "unnormalized")
    exp = filter_expansion(lambda x: x, L, 3, jackson=False)
    f = np.random.default_rng(1).standard_normal(g.n)
    assert np.allclose(apply_filter(L, exp, f), L.matvec(f), atol=1e-10)


def test_apply_filter_uses_exactly_k_plus_one_matvecs():
    g = random_connected_graph(20, seed=5)
    L = laplacian(g, "unnormalized")
    exp = filter_expansion(lambda x: np.exp(-x), L, 7)
    L.reset_matvec_count()
    apply_filter(L, exp, np.ones(g.n))
    assert L.matvec_count == 8


def test_band_filter_converges_to_exact():
    g = random_geometric_graph(100, seed=0)
    L = laplacian(g, "unnormalized")
    pou = PartitionOfUnity.for_operator(L)
    from gsdenoise.frame import exact_eigendecomposition
    eig = exact_eigendecomposition(L)
    f = np.random.default_rng(2).standard_normal(g.n)
    j = 1
    exact = eig.apply_filter(
        np.sqrt(np.clip(pou.psi(j, eig.eigenvalues), 0, None)), f)
    exp = filter_expansion(pou.sqrt_psi(j), L, 100, jackson=False)
    err = np.linalg.norm(apply_filter(L, exp, f) - exact)
    assert err <= 1e-2 * np.linalg.norm(f)


def test_forward_fast_matches_per_band_application():
    g = random_connected_graph(40, seed=7)
    L = laplacian(g, "normalized")
    pou = PartitionOfUnity.for_operator(L)
    f = np.random.default_rng(3).standard_normal(g.n)
    fast = sgwt_forward_fast(L, f, pou, K=30)
    for j, exp in enumerate(band_expansions(L, pou, K=30)):
        ref = apply_filter(L, exp, f)
        assert np.allclose(fast.block(j), ref, rtol=1e-12, atol=1e-12)


def test_forward_fast_matvec_count_is_k():
    g = random_connected_graph(30, seed=2)
    L = laplacian(g, "unnormalized")
    pou = PartitionOfUnity.for_operator(L)
    band_expansions(L, pou, K=12)  # exclude expansion setup from the count
    L.reset_matvec_count()
    sgwt_forward_fast(L, np.ones(g.n), pou, K=12)
    assert L.matvec_count == 12


def test_inverse_fast_matvec_count_is_k_plus_one():
    g = random_connected_graph(30, seed=2)
    L = laplacian(g, "unnormalized")
    pou = PartitionOfUnity.for_operator(L)
    coeffs = sgwt_forward_fast(L, np.ones(g.n), pou, K=12)
    L.reset_matvec_count()
    sgwt_inverse_fast(L, coeffs, pou, K=12)
    assert L.matvec_count == 13


def test_inverse_fast_matches_per_band_synthesis():
    g = random_connected_graph(35, seed=9)
    L = laplacian(g, "unnormalized")
    pou = PartitionOfUnity.for_operator(L)
    rng = np.random.default_rng(4)
    coeffs = sgwt_forward_fast(L, rng.standard_normal(g.n), pou, K=25)
    fused = sgwt_inverse_fast(L, coeffs, pou, K=25)
    ref = np.zeros(g.n)
    for j, exp in enumerate(band_expansions(L, pou, K=25)):
        ref += apply_filter(L, exp, coeffs.block(j))
    assert np.allclose(fused, ref, rtol=1e-12, atol=1e-12)


def test_fast_round_trip_approaches_identity():
    g = random_geometric_graph(90, seed=5)
    L = laplacian(g, "normalized")
    pou = PartitionOfUnity.for_operator(L)
    f = np.random.default_rng(8).standard_normal(g.n)
    back = sgwt_inverse_fast(L, sgwt_forward_fast(L, f, pou, K=150),
                             pou, K=150)
    assert np.linalg.norm(back - f) <= 5e-3 * np.linalg.norm(f)


def test_fast_agrees_with_exact_transform():
    g = random_geometric_graph(80, seed=1)
    L = laplacian(g, "normalized")
    pou = PartitionOfUnity.for_operator(L)
    f = np.random.default_rng(6).standard_normal(g.n)
    exact = sgwt_forward_exact(L, f, pou)
    fast = sgwt_forward_fast(L, f, pou, K=150, jackson=False)
    err = np.linalg.norm(fast.values - exact.values)
    assert err <= 1e-2 * np.linalg.norm(f)
    exact_back = sgwt_inverse_exact(L, exact, pou)
    fast_back = sgwt_inverse_fast(L, exact, pou, K=150, jackson=False)
    assert np.linalg.norm(fast_back - exact_back) <= 1e-2 * np.linalg.norm(f)


def test_expansion_cache_reuses_band_coefficients():
    g = random_connected_graph(15, seed=4)
    L = laplacian(g, "unnormalized")
    pou = PartitionOfUnity.for_operator(L)
    # the raw coefficient arrays are cached; the damping wrapper is cheap
    first = band_expansions(L, pou, K=10)
    second = band_expansions(L, pou, K=10, jackson=False)
    assert all(a.theta is b.theta for a, b in zip(first, second))
    other = band_expansions(L, pou, K=11)
    assert all(a.theta is not b.theta for a, b in zip(first, other))


def _clenshaw_per_step(L, theta, blocks):
    """Clenshaw's recurrence with each step's mixture formed alone."""
    b1 = np.zeros(L.n)
    b2 = np.zeros(L.n)
    for k in range(theta.shape[1] - 1, 0, -1):
        b2 = L.matvec(b1, prev=b2, step=True) + theta[:, k] @ blocks
        b1, b2 = b2, b1
    return L.matvec(b1, step=True) / 2 - b2 + theta[:, 0] @ blocks


@pytest.mark.parametrize("assembled", [False, True])
# n below SLAB, and above it but not a multiple
@pytest.mark.parametrize("side", [20, 70])
@pytest.mark.parametrize("rows", ["one", "all"])
@pytest.mark.parametrize("K", [1, 2, 3, 100])
def test_paired_clenshaw_matches_per_step_reference(K, rows, side, assembled):
    g = grid_graph(side, side)
    assert (g.n < SLAB) == (side == 20) and g.n % SLAB
    L = laplacian(g)
    pou = PartitionOfUnity.for_operator(L)
    theta = np.stack([e.coefficients() for e in band_expansions(L, pou, K)])
    if rows == "one":
        theta = theta[1:2]
    blocks = np.random.default_rng(K).standard_normal((theta.shape[0], g.n))
    want = _clenshaw_per_step(L, theta, blocks)
    L.reset_matvec_count()
    if assembled:
        with L.assembled():
            got = _clenshaw(L, theta, blocks)
    else:
        got = _clenshaw(L, theta, blocks)
    assert L.matvec_count == K + 1
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_transforms_peak_memory_in_signal_vectors():
    # the analysis holds J + 1 outputs, a ring of 4 Chebyshev vectors, a
    # step's product and the step's cached vector (12 measured); the
    # synthesis two buffers, a step's product and a slab of two mixtures
    # (3.0 measured)
    g = grid_graph(300, 300)
    L = laplacian(g, lambda_ub=8.1)  # a fresh operator, no step cached
    pou = PartitionOfUnity.for_operator(L)
    assert pou.J == 5
    band_expansions(L, pou, K=100)
    small = laplacian(grid_graph(3, 3))  # imports scipy.sparse
    sgwt_forward_fast(small, np.ones(9), PartitionOfUnity.for_operator(small))
    f = np.random.default_rng(0).standard_normal(g.n)

    def peak(fn):
        tracemalloc.start()
        try:
            result = fn()
            return tracemalloc.get_traced_memory()[1] / (8 * g.n), result
        finally:
            tracemalloc.stop()

    forward_peak, coeffs = peak(lambda: sgwt_forward_fast(L, f, pou))
    inverse_peak, _ = peak(lambda: sgwt_inverse_fast(L, coeffs, pou))
    assert forward_peak <= 13
    assert inverse_peak <= 4
