"""Acceptance gate: one test per release criterion, each with a runtime cap.

Every test here is deterministic (fixed seeds throughout), so the statistical
bounds are frozen checks, not flaky retries. The terminal summary prints one
PASS/FAIL line per criterion; see conftest.py.
"""

import resource
import time

import numpy as np
import pytest

from gsdenoise.chebyshev import (chebyshev_coefficients, jackson_damping,
                                 sgwt_forward_fast)
from gsdenoise.frame import (FrameCoefficients, PartitionOfUnity,
                             exact_eigendecomposition, frame_matrix_exact,
                             sgwt_forward_exact, sgwt_inverse_exact)
from gsdenoise.graph import (VARIANTS, grid_graph, laplacian,
                             random_connected_graph, random_geometric_graph)
from gsdenoise.pipeline import POU_KINDS, PipelineConfig, denoise_pipeline
from gsdenoise.privacy import PrivacyParams, calibrate_sigma, sanitize
from gsdenoise.signals import SignalSpec, snr, synth_signal
from gsdenoise.sure import (draw_probe, estimate_diagonal_weights,
                            exact_weights, gamma_variance_exact, sure_value,
                            sure_variance_exact)
from gsdenoise.threshold import (ThresholdPolicy, js_derivative, js_threshold,
                                 select_thresholds_sure)
from oracles import exact_probe_weights, shrink_with_derivatives


@pytest.mark.acceptance(1, "privacy noise scale golden values")
def test_privacy_sigma_golden_values():
    start = time.perf_counter()
    classical = {0.2: 26.49, 0.3: 17.66, 0.5: 10.60, 1.0: 5.30}
    for eps, want in classical.items():
        got = calibrate_sigma(PrivacyParams(eps, 1e-6, mechanism="classical"))
        assert got == pytest.approx(want, abs=5e-3)
    analytic = {0.2: 18.99, 0.3: 12.99, 0.5: 8.06, 1.0: 4.22}
    for eps, want in analytic.items():
        got = calibrate_sigma(PrivacyParams(eps, 1e-6))
        assert got == pytest.approx(want, abs=5e-3)
    doubled = {0.2: 37.98, 0.5: 16.12, 1.0: 8.45}
    for eps, want in doubled.items():
        got = calibrate_sigma(PrivacyParams(eps, 1e-6, sensitivity=2.0))
        assert got == pytest.approx(want, abs=1e-2)
    assert time.perf_counter() - start < 1.0


@pytest.mark.acceptance(2, "tight-frame energy identity and exact round trip")
def test_tight_frame_property():
    # 100 random connected graphs cycling through every
    # variant x window x dilation combination; the random-walk analysis
    # operator is a tight frame in the degree-weighted inner product, the
    # symmetric variants in the Euclidean one
    start = time.perf_counter()
    combos = [(v, k, b) for v in VARIANTS for k in POU_KINDS
              for b in (1.5, 2.0)]
    rng = np.random.default_rng(42)
    for i in range(100):
        variant, kind, b = combos[i % len(combos)]
        n = int(rng.integers(8, 201))
        g = random_connected_graph(n, seed=1000 + i)
        L = laplacian(g, variant)
        pou = PartitionOfUnity.for_operator(L, kind=kind, b=b)
        eig = exact_eigendecomposition(L)
        f = rng.standard_normal(n)
        coeffs = sgwt_forward_exact(L, f, pou, eig=eig)
        if variant == "random_walk":
            d = L.degrees
            energy = sum(float(blk @ (d * blk)) for blk in coeffs.as_blocks())
            ref = float(f @ (d * f))
        else:
            energy = float(coeffs.values @ coeffs.values)
            ref = float(f @ f)
        assert abs(energy - ref) <= 1e-8 * ref
        back = sgwt_inverse_exact(L, coeffs, pou, eig=eig)
        assert np.linalg.norm(back - f) <= 1e-8 * np.linalg.norm(f)
    assert time.perf_counter() - start < 30.0


@pytest.mark.acceptance(3, "fast transform convergence in K, damping helps "
                           "the discontinuous filter")
def test_fast_transform_convergence():
    start = time.perf_counter()
    g = random_geometric_graph(100, seed=2)
    L = laplacian(g)
    pou = PartitionOfUnity.for_operator(L)
    f = np.random.default_rng(1).standard_normal(g.n)
    exact = sgwt_forward_exact(L, f, pou).values
    scale = np.linalg.norm(exact)
    err = {K: np.linalg.norm(
        sgwt_forward_fast(L, f, pou, K=K, jackson=False).values - exact)
        / scale for K in (50, 100, 200)}
    assert err[100] <= 1e-2
    assert err[200] < err[50]

    # step filter: damping must lower the max error away from the jump,
    # where the undamped series keeps its persistent overshoot (no
    # polynomial converges uniformly across the discontinuity itself)
    ub, K = 10.0, 100
    jump = ub / 2
    theta = chebyshev_coefficients(lambda x: (x <= jump).astype(float), ub, K)
    xs = np.linspace(0.0, ub, 4001)
    keep = np.abs(xs - jump) > 0.05 * ub
    tgrid = 2.0 * xs / ub - 1.0
    truth = (xs <= jump).astype(float)
    raw = np.polynomial.chebyshev.chebval(tgrid, theta)
    damped = np.polynomial.chebyshev.chebval(tgrid,
                                             theta * jackson_damping(K))
    assert (np.max(np.abs(damped - truth)[keep])
            < np.max(np.abs(raw - truth)[keep]))
    assert time.perf_counter() - start < 10.0


def _small_frame(n, seed):
    g = random_connected_graph(n, seed=seed)
    L = laplacian(g)
    pou = PartitionOfUnity.for_operator(L)
    return L, pou, frame_matrix_exact(L, pou)


@pytest.mark.acceptance(4, "Monte-Carlo weight estimator statistics")
def test_weight_estimator_statistics():
    start = time.perf_counter()
    L, pou, W = _small_frame(20, seed=0)
    gamma = np.diag(exact_weights(W))
    size = gamma.size

    def runs(dist, N, reps, seed0=0):
        return np.stack([
            exact_probe_weights(L, pou, N=N, dist=dist, seed=seed0 + r)
            for r in range(reps)])

    # unbiasedness of every diagonal entry, 4-SE at N=10 over 2000 reps
    ests = runs("rademacher", 10, 2000)
    se = ests.std(axis=0, ddof=1) / np.sqrt(len(ests))
    assert np.all(np.abs(ests.mean(axis=0) - gamma) <= 4.0 * se)

    # per-entry variance against the closed-form oracle, N=5 over 5000 reps
    ests = runs("rademacher", 5, 5000)
    oracle = np.array([gamma_variance_exact(W, "rademacher", 5, i, i)
                       for i in range(size)])
    assert oracle.min() > 0
    rel = np.abs(ests.var(axis=0, ddof=1) / oracle - 1.0)
    assert rel.max() < 0.15

    # sign-probe variance never exceeds the Gaussian one; the gap is
    # (2/N) sum_p W_ip^4, checked exactly and then on the empirical runs
    for i in range(size):
        diff = (gamma_variance_exact(W, "gaussian", 5, i, i)
                - gamma_variance_exact(W, "rademacher", 5, i, i))
        closed = 2.0 / 5 * float(np.sum(W[i] ** 4))
        assert diff >= 0 and diff == pytest.approx(closed, rel=1e-12)
    ests_g = runs("gaussian", 5, 5000)
    frac = np.mean(ests.var(axis=0, ddof=1) <= ests_g.var(axis=0, ddof=1))
    assert frac >= 0.95

    # aggregate MSE ordering holds at every probe budget
    for N in (1, 5, 10, 50):
        mse = {dist: np.mean((runs(dist, N, 400, seed0=10000) - gamma) ** 2)
               for dist in ("rademacher", "gaussian")}
        assert mse["rademacher"] < mse["gaussian"]
    assert time.perf_counter() - start < 120.0


@pytest.mark.acceptance(5, "risk estimate: trace identity, conditional "
                           "moments, unbiasedness for the true risk")
def test_sure_statistics():
    start = time.perf_counter()
    L, pou, W = _small_frame(20, seed=0)
    eig = exact_eigendecomposition(L)
    gamma = np.diag(exact_weights(W))
    sigma = 1.0

    rng = np.random.default_rng(7)
    f = np.zeros(L.n)
    f[rng.integers(0, L.n, 3)] = 5.0
    noisy = f + sigma * rng.standard_normal(L.n)
    coeffs = sgwt_forward_exact(L, noisy, pou, eig=eig)

    # identity map: the risk estimate collapses to n sigma^2 exactly
    ident = ThresholdPolicy(2.0, np.zeros(pou.J + 1))
    same, derivs = shrink_with_derivatives(coeffs, ident)
    val = sure_value(coeffs, same, derivs, sigma, gamma)
    assert val == pytest.approx(L.n * sigma ** 2, rel=1e-12)

    # plug-in estimate is conditionally unbiased over the probe seed
    policy, _ = select_thresholds_sure(coeffs, gamma, sigma)
    thr, derivs = shrink_with_derivatives(coeffs, policy)
    target = sure_value(coeffs, thr, derivs, sigma, gamma)
    vals = np.array([
        sure_value(coeffs, thr, derivs, sigma,
                   exact_probe_weights(L, pou, N=10, seed=r))
        for r in range(2000)])
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - target) <= 3.0 * se

    # conditional variance matches the collapsed closed form within 15%
    L10, pou10, W10 = _small_frame(10, seed=1)
    gam10 = np.diag(exact_weights(W10))
    noisy10 = 2.0 * np.random.default_rng(3).standard_normal(L10.n)
    c10 = sgwt_forward_exact(L10, noisy10, pou10)
    thr10, der10 = shrink_with_derivatives(
        c10, select_thresholds_sure(c10, gam10, sigma)[0])
    oracle = sure_variance_exact(W10, der10, sigma, "rademacher", 3)
    vals = np.array([
        sure_value(c10, thr10, der10, sigma,
                   exact_probe_weights(L10, pou10, N=3, seed=r))
        for r in range(5000)])
    assert vals.var(ddof=1) == pytest.approx(oracle, rel=0.15)

    # over fresh noise at fixed thresholds, the estimate is unbiased for
    # the true coefficient-domain risk (paired differences, 3-SE)
    clean = sgwt_forward_exact(L, f, pou, eig=eig).values
    diffs = np.empty(200)
    for r in range(len(diffs)):
        z = np.random.default_rng(50000 + r).standard_normal(L.n)
        fn = sgwt_forward_exact(L, f + sigma * z, pou, eig=eig)
        h, d = shrink_with_derivatives(fn, policy)
        loss = float(np.sum((h.values - clean) ** 2))
        diffs[r] = sure_value(fn, h, d, sigma, gamma) - loss
    se = diffs.std(ddof=1) / np.sqrt(len(diffs))
    assert abs(diffs.mean()) <= 3.0 * se
    assert time.perf_counter() - start < 300.0


@pytest.mark.acceptance(6, "shrinkage rule: soft-threshold limit, "
                           "derivative, grid optimality")
def test_thresholding_rules():
    start = time.perf_counter()
    x = np.linspace(-6.0, 6.0, 2001)
    t = 1.3
    for beta in (1.0, 2.0, 5.0):
        y = js_threshold(x, t, beta)
        assert np.all(np.abs(y) <= np.abs(x) + 1e-15)
        assert np.all((np.sign(y) == np.sign(x)) | (y == 0.0))
    soft = np.sign(x) * np.maximum(np.abs(x) - t, 0.0)
    assert np.max(np.abs(js_threshold(x, t, 1.0) - soft)) <= 1e-12

    h = 1e-6
    away = x[np.abs(np.abs(x) - t) > 1e-3]
    for beta in (1.0, 2.0, 5.0):
        fd = (js_threshold(away + h, t, beta)
              - js_threshold(away - h, t, beta)) / (2 * h)
        assert np.max(np.abs(js_derivative(away, t, beta) - fd)) <= 1e-5

    # grid selection must match brute force over every observed magnitude
    rng = np.random.default_rng(5)
    vals = 3.0 * rng.standard_normal(15)
    coeffs = FrameCoefficients(vals, 5, 2)
    wdiag = rng.random(15) + 0.5
    sigma = 0.8
    policy, _ = select_thresholds_sure(coeffs, wdiag, sigma)
    thr, derivs = shrink_with_derivatives(coeffs, policy)
    chosen = sure_value(coeffs, thr, derivs, sigma, wdiag)
    for j in range(3):
        block = np.abs(coeffs.block(j))
        best = np.inf
        for tcand in np.concatenate([[0.0], block, [np.inf]]):
            cand = policy.thresholds.copy()
            cand[j] = tcand
            ht, dt = shrink_with_derivatives(coeffs,
                                             ThresholdPolicy(2.0, cand))
            best = min(best, sure_value(coeffs, ht, dt, sigma, wdiag))
        assert chosen == pytest.approx(best, rel=1e-12)
    assert time.perf_counter() - start < 10.0


@pytest.mark.acceptance(7, "end-to-end denoising gain at three noise levels")
def test_end_to_end_denoising_gain():
    start = time.perf_counter()
    g = random_geometric_graph(500, seed=0)
    f = synth_signal(g, SignalSpec(0.01, 4, seed=0))
    L = laplacian(g)
    pou = PartitionOfUnity.for_operator(L)
    est = estimate_diagonal_weights(L, pou, N=PipelineConfig.N, seed=0,
                                    graph_hash=g.content_hash())
    norm_f = np.linalg.norm(f)
    for target_db in (-5.0, 0.0, 5.0):
        sigma = norm_f / (np.sqrt(g.n) * 10 ** (target_db / 20))
        snr_in, snr_out = [], []
        for seed in range(5):
            z = np.random.default_rng(seed).standard_normal(g.n)
            noisy = f + sigma * z
            fhat, _ = denoise_pipeline(g, noisy, PipelineConfig(sigma=sigma),
                                       weights=est, operator=L)
            snr_in.append(snr(f, noisy))
            snr_out.append(snr(f, fhat))
        assert np.mean(snr_in) == pytest.approx(target_db, abs=1.0)
        assert np.mean(snr_out) > np.mean(snr_in)
    assert time.perf_counter() - start < 120.0


@pytest.mark.acceptance(8, "million-node smoke: full pipeline, memory, "
                           "linear cost in K")
def test_million_node_smoke():
    start = time.perf_counter()
    g = grid_graph(1000, 1000)
    assert g.n >= 10 ** 6
    f = synth_signal(g, SignalSpec(0.01, 4, seed=0))
    sigma = calibrate_sigma(PrivacyParams(1.0, 1e-6))
    noisy, _ = sanitize(f, sigma, seed=1)

    L = laplacian(g)
    pou = PartitionOfUnity.for_operator(L)
    config = PipelineConfig(sigma=sigma)
    est = estimate_diagonal_weights(L, pou, N=config.N, seed=0,
                                    graph_hash=g.content_hash())
    fhat, report = denoise_pipeline(g, noisy, config, weights=est,
                                    operator=L)
    assert report["cache"] == "hit"
    assert fhat.shape == (g.n,)
    assert np.all(np.isfinite(fhat))

    # forward cost linear in K: doubling K doubles wall time within 30%
    for K in (25, 50, 100):
        sgwt_forward_fast(L, noisy, pou, K=K)  # warm the caches
    # three rounds of K = 25, 50, 100 in turn, so that one busy spell of
    # the machine cannot cover every run of one K
    best = dict.fromkeys((25, 50, 100), np.inf)
    for _ in range(3):
        for K in best:
            best[K] = min(best[K], _timed_forward(L, noisy, pou, K))
    assert 1.4 <= best[50] / best[25] <= 2.6
    assert 1.4 <= best[100] / best[50] <= 2.6

    # peak RSS must stay far below a dense matrix (8 TB at this n)
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e6
    assert peak_gb < 3.0
    assert time.perf_counter() - start < 1800.0


def _timed_forward(L, f, pou, K):
    t0 = time.perf_counter()
    sgwt_forward_fast(L, f, pou, K=K)
    return time.perf_counter() - t0
