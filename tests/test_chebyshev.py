"""Chebyshev filter expansions and the fast transforms built on them."""

import tracemalloc

import numpy as np
import pytest

from gsdenoise.chebyshev import (
    SLAB,
    _clenshaw,
    _dual_coefficients,
    apply_filter,
    band_coefficients,
    chebyshev_coefficients,
    jackson_damping,
    sgwt_forward_fast,
    sgwt_inverse_fast,
)
from gsdenoise.frame import (
    FrameCoefficients,
    PartitionOfUnity,
    sgwt_forward_exact,
    sgwt_inverse_exact,
)
from gsdenoise.graph import grid_graph, laplacian, random_connected_graph, \
    random_geometric_graph
from gsdenoise.signals import SignalSpec, snr, synth_signal
from gsdenoise.sure import estimate_diagonal_weights


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
    # their spectrum lies in [0, 2], so the bound is that cap, and no
    # matvec is run for it
    g = random_connected_graph(15, seed=0)
    for variant in ("normalized", "random_walk"):
        L = laplacian(g, variant)
        assert (L.lambda_ub, L.bound_matvecs) == (2.0, 0)
    assert laplacian(g, "unnormalized").bound_matvecs > 0


def test_apply_constant_filter_is_scaling():
    g = random_connected_graph(25, seed=3)
    L = laplacian(g, "unnormalized")
    f = np.random.default_rng(0).standard_normal(g.n)
    out = apply_filter(L, lambda x: np.full_like(x, 2.5), f, K=8)
    assert np.allclose(out, 2.5 * f, atol=1e-12)


def test_apply_identity_filter_reproduces_operator():
    g = random_connected_graph(25, seed=3)
    L = laplacian(g, "unnormalized")
    f = np.random.default_rng(1).standard_normal(g.n)
    out = apply_filter(L, lambda x: x, f, K=3, jackson=False)
    assert np.allclose(out, L.matvec(f), atol=1e-10)


def test_apply_filter_uses_exactly_k_plus_one_matvecs():
    g = random_connected_graph(20, seed=5)
    L = laplacian(g, "unnormalized")
    L.reset_matvec_count()
    apply_filter(L, lambda x: np.exp(-x), np.ones(g.n), K=7)
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
    fast = apply_filter(L, lambda x: pou.sqrt_bands(x)[j], f, K=100,
                        jackson=False)
    err = np.linalg.norm(fast - exact)
    assert err <= 1e-2 * np.linalg.norm(f)


def test_forward_fast_matches_per_band_application():
    g = random_connected_graph(40, seed=7)
    L = laplacian(g, "normalized")
    pou = PartitionOfUnity.for_operator(L)
    f = np.random.default_rng(3).standard_normal(g.n)
    fast = sgwt_forward_fast(L, f, pou, K=30)
    for j in range(pou.J + 1):
        ref = apply_filter(L, lambda x: pou.sqrt_bands(x)[j], f, K=30)
        assert np.allclose(fast.block(j), ref, rtol=1e-12, atol=1e-12)


def test_forward_fast_matvec_count_is_k():
    g = random_connected_graph(30, seed=2)
    L = laplacian(g, "unnormalized")
    pou = PartitionOfUnity.for_operator(L)
    band_coefficients(L, pou, K=12)  # exclude expansion setup from the count
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
    # the synthesis is the sum over scales of each dual filter q_j = p_j / S,
    # S = sum_j p_j^2, with p_j the damped band polynomials, applied by its
    # own Clenshaw recurrence
    g = random_connected_graph(35, seed=9)
    L = laplacian(g, "unnormalized")
    pou = PartitionOfUnity.for_operator(L)
    rng = np.random.default_rng(4)
    coeffs = sgwt_forward_fast(L, rng.standard_normal(g.n), pou, K=25)
    fused = sgwt_inverse_fast(L, coeffs, pou, K=25)
    theta = band_coefficients(L, pou, K=25)

    def dual(lam):
        p = np.polynomial.chebyshev.chebval(2.0 * lam / L.lambda_ub - 1.0,
                                            theta.T)
        return p / np.sum(p * p, axis=0)

    ref = np.zeros(g.n)
    for j in range(pou.J + 1):
        ref += apply_filter(L, lambda x: dual(x)[j], coeffs.block(j), K=25,
                            jackson=False)
    assert np.allclose(fused, ref, rtol=1e-12, atol=1e-12)


def test_dual_round_trip_of_a_grid_signal():
    # synthesis through the dual inverts the degree-100 damped analysis to
    # 85.6 dB on a benchmark-recipe signal, where the adjoint reached 38.3
    g = grid_graph(300, 300)
    L = laplacian(g)
    pou = PartitionOfUnity.for_operator(L)
    f = synth_signal(g, SignalSpec(0.01, 4, seed=1000))
    back = sgwt_inverse_fast(L, sgwt_forward_fast(L, f, pou), pou)
    assert snr(f, back) >= 80.0


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
    # the rows are cached per damping; the damped ones are the undamped
    # times the damping
    first = band_coefficients(L, pou, K=10, jackson=False)
    assert band_coefficients(L, pou, K=10, jackson=False) is first
    assert band_coefficients(L, pou, K=10) is band_coefficients(L, pou, K=10)
    assert band_coefficients(L, pou, K=11, jackson=False) is not first
    assert np.array_equal(band_coefficients(L, pou, K=10),
                          first * jackson_damping(10))
    # the key is the partition itself, so every field it has counts
    smooth = [PartitionOfUnity.for_operator(L, kind="smooth", c=c)
              for c in (1.0, 0.7)]
    rows = [band_coefficients(L, p, K=10, jackson=False) for p in smooth]
    assert rows[0] is not rows[1]
    assert not np.array_equal(rows[0], rows[1])
    assert np.array_equal(rows[1], chebyshev_coefficients(
        smooth[1].sqrt_bands, L.lambda_ub, 10))


@pytest.mark.parametrize("jackson", [False, True])
def test_band_coefficients_are_read_only(jackson):
    g = grid_graph(10, 10)
    L = laplacian(g)
    pou = PartitionOfUnity.for_operator(L)
    f = np.random.default_rng(5).standard_normal(g.n)
    before = sgwt_forward_fast(L, f, pou, K=20, jackson=jackson).values
    theta = band_coefficients(L, pou, K=20, jackson=jackson)
    with pytest.raises(ValueError, match="read-only"):
        theta *= 0.0
    after = sgwt_forward_fast(L, f, pou, K=20, jackson=jackson).values
    assert after.tobytes() == before.tobytes()
    # and so are the synthesis's dual rows
    with pytest.raises(ValueError, match="read-only"):
        _dual_coefficients(pou, 20, L.lambda_ub, jackson)[0, 0] = 0.0


def test_partition_for_another_bound_is_refused():
    # grid_graph(20, 20)'s bound is 8. A partition for 4 has J = 3, and its
    # bands do not cover [0, 8]: used anyway, the forward transform of a
    # white signal keeps 81% of its energy (99% with the operator's own
    # partition) and the round trip is 33% off
    g = grid_graph(20, 20)
    L = laplacian(g)
    assert L.lambda_ub == 8.0
    pou = PartitionOfUnity("linear", 2.0, 4.0)
    f = np.random.default_rng(0).standard_normal(g.n)
    coeffs = FrameCoefficients(np.zeros(g.n * (pou.J + 1)), g.n, pou.J)
    match = r"partition built for lambda_ub=4\.0, but the operator's " \
        r"bound is 8\.0"
    with pytest.raises(ValueError, match=match):
        band_coefficients(L, pou, 20)
    with pytest.raises(ValueError, match=match):
        sgwt_forward_fast(L, f, pou, K=20)
    with pytest.raises(ValueError, match=match):
        sgwt_inverse_fast(L, coeffs, pou, K=20)
    with pytest.raises(ValueError, match=match):
        estimate_diagonal_weights(L, pou, K=20, N=1)
    assert L.matvec_count == 0


@pytest.mark.parametrize("kind", ["linear", "smooth"])
@pytest.mark.parametrize("K", [0, 7, 100])
def test_multi_row_coefficients_equal_one_row_calls(kind, K):
    L = laplacian(random_connected_graph(30, seed=1))
    pou = PartitionOfUnity.for_operator(L, kind=kind, c=0.7)
    rows = chebyshev_coefficients(pou.sqrt_bands, L.lambda_ub, K)
    assert rows.shape == (pou.J + 1, K + 1)
    for j in range(pou.J + 1):
        one = chebyshev_coefficients(
            lambda x: np.sqrt(np.clip(pou.psi(j, x), 0.0, None)),
            L.lambda_ub, K)
        assert one.shape == (K + 1,)
        assert rows[j].tobytes() == one.tobytes()


def test_nonfinite_row_names_the_abscissa():
    ub, K = 3.0, 5
    M = 4 * (K + 1)
    nodes = ub / 2 * (np.cos(np.pi * (np.arange(1, M + 1) - 0.5) / M) + 1)
    # the first node, in node order, at which the second row is not finite
    want = nodes[nodes < 1.0][0]
    with pytest.raises(ValueError, match=rf"non-finite value at x={want}$"):
        chebyshev_coefficients(
            lambda x: np.stack([np.ones_like(x),
                                np.where(x < 1.0, np.nan, x)]), ub, K)


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
    theta = band_coefficients(L, pou, K)
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


def test_grid_frame_has_no_zero_band():
    # the grid's bound is its Gershgorin cap 8 = 2^3, which four bands
    # cover; a fifth would be 0 on the whole interval
    L = laplacian(grid_graph(300, 300))
    pou = PartitionOfUnity.for_operator(L)
    theta = band_coefficients(L, pou, 100)
    assert theta.shape == (pou.J + 1, 101) and pou.J == 4
    assert np.all(np.any(theta != 0, axis=1))


def test_transforms_peak_memory_in_signal_vectors():
    # the analysis holds J + 1 outputs, a ring of 4 Chebyshev vectors, a
    # step's product and the step's cached vector (12 measured); the
    # synthesis two buffers, a step's product and a slab of two mixtures
    # (3.0 measured)
    g = grid_graph(300, 300)
    L = laplacian(g, lambda_ub=8.1)  # a fresh operator, no step cached
    pou = PartitionOfUnity.for_operator(L)
    assert pou.J == 5
    band_coefficients(L, pou, K=100)
    small = laplacian(grid_graph(3, 3))  # loads the kernel
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
