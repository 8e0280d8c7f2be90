"""Monte-Carlo weight estimation, the risk estimate, and its variance.

The closed-form variance expressions are checked against literal
quadruple-sum implementations written independently here, so a shared
algebra mistake cannot hide.
"""

import tracemalloc

import numpy as np
import pytest

from gsdenoise.chebyshev import (_analysis, band_coefficients,
                                 sgwt_forward_fast)
from gsdenoise.frame import (FrameCoefficients, PartitionOfUnity,
                             frame_matrix_exact)
from gsdenoise.graph import VARIANTS, grid_graph, laplacian, \
    random_connected_graph
from gsdenoise.sure import (
    WeightEstimate,
    draw_probe,
    estimate_diagonal_weights,
    exact_weights,
    gamma_variance_exact,
    load_weights,
    save_weights,
    sure_value,
    sure_variance_exact,
)
from oracles import exact_probe_weights

MOMENTS = {"rademacher": (0.0, 1.0), "gaussian": (2.0, 1.0)}


def _setup(n=20, seed=0, variant="unnormalized"):
    g = random_connected_graph(n, seed=seed)
    L = laplacian(g, variant)
    pou = PartitionOfUnity.for_operator(L)
    return g, L, pou


def _gamma_var_bruteforce(F, dist, N, i, j):
    # literal variance of (1/N) sum_k (F eps)_i (F eps)_j for iid probes
    v_eps2, e_eps2_sq = MOMENTS[dist]
    wi, wj = F[i], F[j]
    n = F.shape[1]
    acc = 0.0
    for p in range(n):
        acc += v_eps2 * wi[p] ** 2 * wj[p] ** 2
        for q in range(n):
            if p != q:
                acc += e_eps2_sq * (wi[p] * wj[p] * wi[q] * wj[q]
                                    + wi[p] * wj[q] * wi[q] * wj[p])
    return acc / N


def _sure_var_bruteforce(F, derivs, sigma, dist, N):
    v_eps2, e_eps2_sq = MOMENTS[dist]
    d = np.diag(derivs) if derivs.ndim == 1 else derivs
    size, n = F.shape
    total = 0.0
    for i in range(size):
        for j in range(size):
            if d[j, i] == 0.0:
                continue
            for k in range(size):
                for ell in range(size):
                    if d[k, ell] == 0.0:
                        continue
                    s1 = np.sum(F[i] * F[j] * F[k] * F[ell])
                    s2 = (F[i] @ F[k]) * (F[j] @ F[ell]) - s1
                    s3 = (F[i] @ F[ell]) * (F[j] @ F[k]) - s1
                    total += d[j, i] * d[k, ell] * (
                        v_eps2 * s1 + e_eps2_sq * (s2 + s3))
    return 4.0 * sigma ** 4 / N * total


def test_probe_draws_deterministic_and_distributed():
    a = draw_probe(50, "rademacher", seed=3, k=2)
    b = draw_probe(50, "rademacher", seed=3, k=2)
    assert np.array_equal(a, b)
    assert set(np.unique(a)) <= {-1.0, 1.0}
    assert not np.array_equal(a, draw_probe(50, "rademacher", seed=3, k=1))
    g = draw_probe(200000, "gaussian", seed=0, k=0)
    assert abs(g.mean()) < 0.01 and abs(g.std() - 1.0) < 0.01


def test_unknown_distribution_rejected():
    with pytest.raises(ValueError, match="distribution"):
        draw_probe(5, "uniform", 0, 0)


@pytest.mark.parametrize("variant", VARIANTS)
def test_assembled_weights_match_zero_copy_steps(variant):
    # the estimate runs its steps on the assembled matrix; the reference
    # repeats its probe transforms outside that context
    _, L, pou = _setup(60, seed=3, variant=variant)
    K, N = 40, 4
    L.reset_matvec_count()
    est = estimate_diagonal_weights(L, pou, K=K, N=N, seed=5)
    assert L.matvec_count == N * K
    ref = np.zeros_like(est.diag)
    for k in range(N):
        w = sgwt_forward_fast(L, draw_probe(L.n, "rademacher", 5, k), pou,
                              K=K).values
        ref += w * w
    ref /= N
    assert np.linalg.norm(est.diag - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("variant", VARIANTS)
def test_weights_are_the_mean_of_squared_probe_analyses(variant):
    # the estimate writes each probe's transform over one ring and one set
    # of outputs; the reference runs each probe's analysis afresh, on the
    # same scaled weights
    _, L, pou = _setup(60, seed=3, variant=variant)
    K, N = 30, 3
    theta = band_coefficients(L, pou, K=K)
    with L.assembled():
        est = estimate_diagonal_weights(L, pou, K=K, N=N, seed=2)
        ref = np.zeros_like(est.diag)
        for k in range(N):
            ref += np.square(_analysis(L, theta, draw_probe(
                L.n, "rademacher", 2, k))).ravel()
    assert est.diag.tobytes() == (ref / N).tobytes()


def test_weights_peak_memory_in_signal_vectors():
    # N probes on the step's 4-vector scaled weights: the sum of squares, a
    # probe's J + 1 outputs, a ring of 4 and the probe itself
    small = laplacian(grid_graph(3, 3))  # loads the kernel
    estimate_diagonal_weights(small, PartitionOfUnity.for_operator(small),
                              K=5, N=1)
    g = grid_graph(300, 300)
    L = laplacian(g)  # a fresh operator: nothing assembled, no step cached
    outside = L._step
    pou = PartitionOfUnity.for_operator(L)
    assert pou.J == 4  # the bound is 8 = 2^3, which four bands cover
    band_coefficients(L, pou, K=100)
    tracemalloc.start()
    try:
        est = estimate_diagonal_weights(L, pou, N=2)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 8 * g.n
    # only the estimate is left: the operator dropped its scaled weights
    assert L._step is outside
    assert held <= (pou.J + 1.1) * 8 * g.n and est.N == 2


def test_exact_weights_gram_structure():
    _, L, pou = _setup(18, seed=4)
    F = frame_matrix_exact(L, pou)
    G = exact_weights(F)
    assert np.allclose(G, G.T, atol=1e-12)
    assert np.all(np.linalg.eigvalsh(G) >= -1e-10)
    # tight frame: the Gram trace equals the node count for every variant
    assert np.trace(G) == pytest.approx(L.n, rel=1e-10)


@pytest.mark.parametrize("variant", ["unnormalized", "normalized"])
def test_gram_trace_is_node_count(variant):
    _, L, pou = _setup(16, seed=6, variant=variant)
    F = frame_matrix_exact(L, pou)
    assert np.trace(exact_weights(F)) == pytest.approx(L.n, rel=1e-10)


def test_random_walk_gram_trace_is_degree_weighted():
    # the Euclidean trace identity fails for the non-symmetric analysis
    # operator; the degree-weighted form holds instead
    g, L, pou = _setup(16, seed=6, variant="random_walk")
    F = frame_matrix_exact(L, pou)
    assert np.trace(exact_weights(F)) != pytest.approx(L.n, rel=1e-6)
    D = np.diag(g.degrees)
    blocks = F.reshape(pou.J + 1, L.n, L.n)
    tr = sum(np.trace(B.T @ D @ B) for B in blocks)
    assert tr == pytest.approx(np.trace(D), rel=1e-10)


@pytest.mark.parametrize("dist", ["rademacher", "gaussian"])
def test_weight_variance_formula_matches_bruteforce(dist):
    rng = np.random.default_rng(11)
    F = rng.standard_normal((8, 5))
    for i, j in [(0, 0), (2, 2), (1, 4), (7, 3)]:
        want = _gamma_var_bruteforce(F, dist, 3, i, j)
        got = gamma_variance_exact(F, dist, 3, i, j)
        assert got == pytest.approx(want, rel=1e-12)


def test_single_support_row_kills_rademacher_variance():
    F = np.zeros((3, 4))
    F[0, 2] = 1.7  # one nonzero in row 0
    F[1] = [0.3, -0.2, 0.5, 0.1]
    assert gamma_variance_exact(F, "rademacher", 5, 0, 0) == 0.0
    assert gamma_variance_exact(F, "gaussian", 5, 0, 0) > 0.0


def test_weight_estimate_unbiased_small_budget():
    _, L, pou = _setup(12, seed=7)
    F = frame_matrix_exact(L, pou)
    exact = np.diag(exact_weights(F))
    reps = 300
    acc = np.zeros_like(exact)
    sq = np.zeros_like(exact)
    for r in range(reps):
        est = exact_probe_weights(L, pou, N=4, seed=r)
        acc += est
        sq += est * est
    mean = acc / reps
    se = np.sqrt((sq / reps - mean ** 2) / reps)
    assert np.all(np.abs(mean - exact) <= 6 * se + 1e-12)


def test_probe_budget_scales_variance_inversely():
    _, L, pou = _setup(10, seed=9)
    reps = 400
    v = {}
    for N in (4, 16):
        samples = np.array([
            exact_probe_weights(L, pou, N=N, seed=1000 * N + r)
            for r in range(reps)])
        v[N] = samples.var(axis=0).mean()
    assert v[16] == pytest.approx(v[4] / 4, rel=0.25)


def test_sure_of_identity_rule_is_noise_energy():
    _, L, pou = _setup(20, seed=1)
    F = frame_matrix_exact(L, pou)
    wdiag = np.diag(exact_weights(F))
    vals = F @ np.random.default_rng(3).standard_normal(L.n)
    coeffs = FrameCoefficients(vals, L.n, pou.J)
    sigma = 0.7
    val = sure_value(coeffs, coeffs, np.ones_like(vals), sigma, wdiag)
    assert val == pytest.approx(L.n * sigma ** 2, rel=1e-12)


def test_sure_value_validates_inputs():
    c = FrameCoefficients(np.ones(6), 6, 0)
    h = FrameCoefficients(np.ones(6), 6, 0)
    with pytest.raises(ValueError):
        sure_value(c, h, np.ones(5), 1.0, np.ones(6))
    with pytest.raises(ValueError):
        sure_value(c, h, np.ones(6), 0.0, np.ones(6))
    with pytest.raises(ValueError, match="finite"):
        sure_value(c, h, np.ones(6), np.inf, np.ones(6))


@pytest.mark.parametrize("dist", ["rademacher", "gaussian"])
def test_sure_variance_formula_matches_bruteforce(dist):
    rng = np.random.default_rng(13)
    F = rng.standard_normal((6, 4))
    derivs = rng.uniform(0, 1, size=6)
    want = _sure_var_bruteforce(F, derivs, 0.8, dist, 2)
    got = sure_variance_exact(F, derivs, 0.8, dist, 2)
    assert got == pytest.approx(want, rel=1e-12)
    # full Jacobian form
    J = rng.standard_normal((6, 6))
    want = _sure_var_bruteforce(F, J, 0.8, dist, 2)
    got = sure_variance_exact(F, J, 0.8, dist, 2)
    assert got == pytest.approx(want, rel=1e-12)


def test_sure_variance_zero_derivatives():
    F = np.random.default_rng(1).standard_normal((5, 3))
    assert sure_variance_exact(F, np.zeros(5), 1.0, "gaussian", 4) == 0.0


def test_sure_variance_rademacher_never_exceeds_gaussian():
    rng = np.random.default_rng(21)
    for trial in range(10):
        F = rng.standard_normal((8, 6))
        derivs = rng.uniform(0, 1, size=8)
        rad = sure_variance_exact(F, derivs, 1.1, "rademacher", 3)
        gau = sure_variance_exact(F, derivs, 1.1, "gaussian", 3)
        assert rad <= gau + 1e-12


def test_sure_variance_cap():
    F = np.zeros((200, 2))
    with pytest.raises(ValueError, match="150"):
        sure_variance_exact(F, np.zeros(200), 1.0, "gaussian", 1)


def test_weight_cache_round_trip(tmp_path):
    _, L, pou = _setup(9, seed=5)
    est = estimate_diagonal_weights(L, pou, K=30, N=3, seed=8,
                                    graph_hash="abc123")
    path = tmp_path / "w.txt"
    save_weights(path, est)
    back = load_weights(path)
    assert np.array_equal(back.diag, est.diag)
    assert back.fingerprint() == est.fingerprint()
    # the bound the estimate was made with is in its partition, by repr,
    # and nowhere else
    assert f",lambda_ub={L.lambda_ub!r}," in back.pou
    assert "lambda_ub =" not in path.read_text()


def test_weight_cache_of_a_numpy_bool_matches_its_fingerprint(tmp_path):
    # the estimate refuses jackson=2, which it would fingerprint as 2 and
    # the cache would read back as 1; a numpy bool round-trips as a bool
    g = grid_graph(5, 5)
    L = laplacian(g)
    pou = PartitionOfUnity.for_operator(L)
    with pytest.raises(ValueError, match=r"^jackson must be a bool, got 2$"):
        estimate_diagonal_weights(L, pou, K=10, jackson=2, N=1)
    est = estimate_diagonal_weights(L, pou, K=10, jackson=np.bool_(True),
                                    N=1, graph_hash=g.content_hash())
    path = tmp_path / "w.txt"
    save_weights(path, est)
    back = load_weights(path)
    assert back.fingerprint() == est.fingerprint()
    assert ",jackson=1," in back.fingerprint()
    assert back.diag.tobytes() == est.diag.tobytes()


_HEADER = ("# n = 2\n# J = 0\n# K = 10\n# jackson = 1\n# N = 1\n"
           "# distribution = rademacher\n# seed = 0\n")


@pytest.mark.parametrize("value", ["2", "-7", "true", "1.0", ""])
def test_weight_cache_refuses_a_jackson_header_other_than_0_or_1(tmp_path,
                                                                 value):
    # read as True, such a header would match a jackson=1 fingerprint
    path = tmp_path / "w.txt"
    path.write_text(_HEADER.replace("# jackson = 1",
                                    f"# jackson = {value}") + "1.0\n0.5\n")
    with pytest.raises(ValueError, match=rf"w\.txt: jackson must be 0 or 1, "
                                         rf"got '{value}'$"):
        load_weights(path)
    for flag in (0, 1):
        path.write_text(_HEADER.replace("# jackson = 1",
                                        f"# jackson = {flag}") + "1.0\n0.5\n")
        assert load_weights(path).jackson is bool(flag)


def test_weight_cache_malformed_value_names_its_line(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text(_HEADER + "1.0\n0.5x\n")
    with pytest.raises(ValueError, match=r"w\.txt:9: bad value in '0\.5x'"):
        load_weights(path)


def test_weight_cache_reads_as_a_signal_file(tmp_path):
    # a cache is a signal file: comments and blank lines may sit inside its
    # body, and a header line may follow it
    clean = tmp_path / "clean.txt"
    clean.write_text(_HEADER + "# graph_hash = h\n1.0\n0.5\n")
    loose = tmp_path / "loose.txt"
    loose.write_text(_HEADER + "1.0\n# note\n\n0.5\n# graph_hash = h\n")
    want, got = load_weights(clean), load_weights(loose)
    assert got.diag.tobytes() == want.diag.tobytes()
    assert got.graph_hash == want.graph_hash == "h"
    assert got.fingerprint() == want.fingerprint()


@pytest.mark.parametrize("bound", ["1.9471808144609681", "nan"])
def test_weight_cache_with_a_bound_line_still_loads(tmp_path, bound):
    # caches once carried the bound on a line of its own; that key is now
    # ignored, whatever its value, as the bound is part of pou
    old = tmp_path / "old.txt"
    old.write_text(_HEADER + f"# lambda_ub = {bound}\n1.0\n0.5\n")
    new = tmp_path / "new.txt"
    new.write_text(_HEADER + "1.0\n0.5\n")
    got, want = load_weights(old), load_weights(new)
    assert got.diag.tobytes() == want.diag.tobytes()
    assert got.fingerprint() == want.fingerprint()
    assert not hasattr(got, "lambda_ub")


def test_weight_cache_missing_field(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("# n = 2\n# J = 0\n1.0\n0.5\n")
    with pytest.raises(ValueError, match="'N'"):
        load_weights(path)


def test_weight_estimate_length_validation():
    with pytest.raises(ValueError, match="n\\(J\\+1\\)"):
        WeightEstimate(np.ones(5), 2, 2, 1, "rademacher", 0, 10, True)


@pytest.mark.parametrize("bad", [np.nan, -0.5, np.inf])
def test_weight_estimate_rejects_nan_negative_and_infinite_entries(bad):
    diag = np.ones(6)
    diag[3] = bad
    with pytest.raises(ValueError, match="entry 3"):
        WeightEstimate(diag, 2, 2, 1, "rademacher", 0, 10, True)


def test_weight_cache_with_nan_entry_is_rejected(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text(_HEADER + "1.0\nnan\n")
    with pytest.raises(ValueError, match="entry 1"):
        load_weights(path)
