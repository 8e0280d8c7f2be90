"""Partition of unity, exact analysis/synthesis, and frame identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsdenoise.chebyshev import chebyshev_coefficients
from gsdenoise.frame import (
    FrameCoefficients,
    PartitionOfUnity,
    exact_eigendecomposition,
    frame_matrix_exact,
    sgwt_forward_exact,
    sgwt_inverse_exact,
)
from gsdenoise.graph import grid_graph, laplacian, random_connected_graph

VARIANTS = ("unnormalized", "normalized", "random_walk")


def _partition_sum(pou, x):
    return sum(pou.psi(j, x) for j in range(pou.J + 1))


def test_linear_window_by_hand():
    pou = PartitionOfUnity("linear", 2.0, 1.0)
    assert pou.omega(0.0) == 1.0
    assert pou.omega(0.5) == 1.0  # plateau reaches b^-1
    assert pou.omega(0.75) == pytest.approx(0.5)
    assert pou.omega(1.0) == 0.0
    assert pou.omega(1.5) == 0.0
    assert pou.psi(1, 1.0) == pytest.approx(1.0)  # band peak at scale 1


def test_smooth_window_edges():
    pou = PartitionOfUnity("smooth", 2.0, 1.0)
    x = np.linspace(0, 0.5, 11)
    assert np.allclose(pou.omega(x), 1.0, atol=1e-12)  # exact plateau
    assert abs(pou.omega(1.0)) <= 1e-12
    mid = pou.omega(np.linspace(0.55, 0.95, 9))
    assert np.all(np.diff(mid) < 0)  # strictly decreasing transition


def test_scale_count_formula_and_clamp():
    # at an exact power of b, b^(J-1) = lambda_ub already covers it
    assert PartitionOfUnity("linear", 2.0, 1.0).J == 1
    assert PartitionOfUnity("linear", 2.0, 8.0).J == 4
    # also where lambda_ub / b^J rounds above 1/b, and omega there below 1
    assert PartitionOfUnity("linear", 1.05, 1.05).J == 2
    assert PartitionOfUnity("linear", 1.01, 1.01 ** 3).J == 4
    # lambda_ub below b^-2: the formula would go negative, clamps to 0
    assert PartitionOfUnity("linear", 4.0, 0.05).J == 0
    sums = _partition_sum(PartitionOfUnity("linear", 4.0, 0.05),
                          np.linspace(0, 0.05, 50))
    assert np.allclose(sums, 1.0, atol=1e-12)
    # the smooth window leaves its plateau as 1 - exp(-1 / (c - u)) does,
    # which rounds to 1 there: four bands already sum to 1.0 on [0, 8.2]
    for lam in (8.1, 8.2):
        pou = PartitionOfUnity("smooth", 2.0, lam)
        assert pou.J == 4
        rows = chebyshev_coefficients(pou.sqrt_bands, lam, 100)
        assert np.all(np.any(rows != 0, axis=1))


@pytest.mark.parametrize("kind", ["linear", "smooth"])
@pytest.mark.parametrize("b", [1.5, 2.0, 3.0, 4.0])
@pytest.mark.parametrize("k", range(-2, 5))
@pytest.mark.parametrize("rel", [-1e-9, 0.0, 1e-9])
def test_fewest_bands_cover_the_interval(kind, b, k, rel):
    # the bands sum to omega(x / b^J), 1 on [0, b^(J-1)]; psi_J rises from 0
    # past b^(J-2), so with the fewest bands it is positive near lambda_ub
    lam = b ** k * (1.0 + rel)
    pou = PartitionOfUnity(kind, b, lam)
    x = np.linspace(0.0, lam, 1001)
    assert np.allclose(_partition_sum(pou, x), 1.0, rtol=0, atol=1e-12)
    if pou.J == 0:
        return
    assert lam > b ** (pou.J - 2)
    assert pou.psi(pou.J, x).max() > 0


@pytest.mark.parametrize("kind", ["linear", "smooth"])
@pytest.mark.parametrize("b", [1.5, 2.0, 4.0])
@pytest.mark.parametrize("lam", [0.3, 1.0, 3.7, 8.0])
def test_partition_sums_to_one(kind, b, lam):
    pou = PartitionOfUnity(kind, b, lam)
    x = np.linspace(0.0, lam, 400)
    assert np.allclose(_partition_sum(pou, x), 1.0, atol=1e-12)
    for j in range(pou.J + 1):
        vals = pou.psi(j, x)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0 + 1e-15)


@settings(max_examples=60, deadline=None)
@given(st.floats(1.05, 6.0), st.floats(0.1, 20.0), st.floats(0.0, 1.0))
def test_partition_sums_to_one_everywhere(b, lam, frac):
    pou = PartitionOfUnity("linear", b, lam)
    x = frac * lam
    assert _partition_sum(pou, x) == pytest.approx(1.0, abs=1e-12)


def test_base_restriction_for_normalized_variants():
    L = laplacian(random_connected_graph(20, seed=0), "normalized")
    with pytest.raises(ValueError, match="\\(1, 2\\]"):
        PartitionOfUnity.for_operator(L, b=2.5)
    assert PartitionOfUnity.for_operator(L, b=1.5).b == 1.5


def test_parameter_validation():
    with pytest.raises(ValueError, match="kind"):
        PartitionOfUnity("boxcar", 2.0, 1.0)
    with pytest.raises(ValueError):
        PartitionOfUnity("linear", 1.0, 1.0)
    with pytest.raises(ValueError):
        PartitionOfUnity("linear", 2.0, -1.0)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
def test_bound_must_be_positive_and_finite(bad):
    with pytest.raises(ValueError, match="lambda_ub"):
        PartitionOfUnity("linear", 2.0, bad)
    with pytest.raises(ValueError, match="lambda_ub"):
        laplacian(random_connected_graph(20, seed=0), lambda_ub=bad)


def test_coefficient_blocks_are_views():
    c = FrameCoefficients(np.arange(12.0), 4, 2)
    assert np.array_equal(c.block(1), [4.0, 5, 6, 7])
    c.as_blocks()[2, 0] = -1.0
    assert c.values[8] == -1.0
    with pytest.raises(ValueError, match="scale index"):
        c.block(3)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("kind", ["linear", "smooth"])
def test_exact_transform_round_trip(variant, kind):
    g = random_connected_graph(40, seed=8)
    L = laplacian(g, variant)
    pou = PartitionOfUnity.for_operator(L, kind=kind)
    f = np.random.default_rng(2).standard_normal(g.n)
    coeffs = sgwt_forward_exact(L, f, pou)
    back = sgwt_inverse_exact(L, coeffs, pou)
    assert np.allclose(back, f, rtol=0, atol=1e-10)


@pytest.mark.parametrize("variant", ["unnormalized", "normalized"])
def test_energy_preserved_euclidean(variant):
    g = random_connected_graph(45, seed=4)
    L = laplacian(g, variant)
    pou = PartitionOfUnity.for_operator(L)
    f = np.random.default_rng(3).standard_normal(g.n)
    coeffs = sgwt_forward_exact(L, f, pou)
    assert coeffs.values @ coeffs.values == pytest.approx(f @ f, rel=1e-10)


def test_energy_preserved_degree_weighted_for_random_walk():
    g = random_connected_graph(45, seed=4)
    L = laplacian(g, "random_walk")
    pou = PartitionOfUnity.for_operator(L)
    f = np.random.default_rng(3).standard_normal(g.n)
    blocks = sgwt_forward_exact(L, f, pou).as_blocks()
    d = g.degrees
    assert sum(b @ (d * b) for b in blocks) == pytest.approx(f @ (d * f),
                                                            rel=1e-10)


@pytest.mark.parametrize("variant", ["unnormalized", "normalized"])
def test_synthesis_is_adjoint_of_analysis(variant):
    g = random_connected_graph(30, seed=6)
    L = laplacian(g, variant)
    pou = PartitionOfUnity.for_operator(L)
    rng = np.random.default_rng(5)
    f = rng.standard_normal(g.n)
    c = FrameCoefficients(rng.standard_normal(g.n * (pou.J + 1)), g.n, pou.J)
    lhs = sgwt_forward_exact(L, f, pou).values @ c.values
    rhs = f @ sgwt_inverse_exact(L, c, pou)
    assert lhs == pytest.approx(rhs, rel=1e-10)


@pytest.mark.parametrize("variant", VARIANTS)
def test_frame_matrix_rows_reproduce_forward(variant):
    g = random_connected_graph(25, seed=12)
    L = laplacian(g, variant)
    pou = PartitionOfUnity.for_operator(L)
    F = frame_matrix_exact(L, pou)
    f = np.random.default_rng(9).standard_normal(g.n)
    assert np.allclose(F @ f, sgwt_forward_exact(L, f, pou).values,
                       rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("transform", ["sgwt_forward_exact",
                                       "sgwt_inverse_exact",
                                       "frame_matrix_exact"])
def test_exact_transforms_refuse_a_partition_for_another_bound(transform):
    # a partition for 4 does not cover [0, 8]: on grid_graph(20, 20),
    # whose bound is 8, the exact forward transform keeps 82% of a white
    # signal's energy with it and the round trip is 33% off
    g = grid_graph(10, 10)
    L = laplacian(g, lambda_ub=8.0)
    pou = PartitionOfUnity("linear", 2.0, 4.0)
    f = np.random.default_rng(0).standard_normal(g.n)
    coeffs = FrameCoefficients(np.zeros(g.n * (pou.J + 1)), g.n, pou.J)
    call = {"sgwt_forward_exact": lambda: sgwt_forward_exact(L, f, pou),
            "sgwt_inverse_exact": lambda: sgwt_inverse_exact(L, coeffs, pou),
            "frame_matrix_exact": lambda: frame_matrix_exact(L, pou)}
    with pytest.raises(ValueError, match=r"partition built for "
                       r"lambda_ub=4\.0, but the operator's bound is 8\.0"):
        call[transform]()


def test_eigendecomposition_matches_quadratic_form():
    g = random_connected_graph(30, seed=1)
    L = laplacian(g, "normalized")
    eig = exact_eigendecomposition(L)
    assert eig.eigenvalues.min() >= -1e-10
    assert eig.eigenvalues.max() <= 2.0 + 1e-10
    # reconstruct the operator action from the decomposition
    f = np.random.default_rng(4).standard_normal(g.n)
    recon = eig.apply_filter(eig.eigenvalues, f)
    assert np.allclose(recon, L.matvec(f), rtol=1e-9, atol=1e-9)


def test_filter_matrix_consistent_with_apply():
    g = random_connected_graph(18, seed=14)
    L = laplacian(g, "random_walk")
    eig = exact_eigendecomposition(L)
    vals = np.exp(-eig.eigenvalues)
    M = eig.filter_matrix(vals)
    f = np.random.default_rng(6).standard_normal(g.n)
    assert np.allclose(M @ f, eig.apply_filter(vals, f), rtol=1e-10,
                       atol=1e-10)


def test_fingerprint_distinguishes_parameters():
    a = PartitionOfUnity("linear", 2.0, 4.0)
    b = PartitionOfUnity("linear", 2.0, 4.0)
    c = PartitionOfUnity("smooth", 2.0, 4.0)
    assert a.fingerprint() == b.fingerprint() != c.fingerprint()
