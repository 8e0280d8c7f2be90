"""Each benchmark check passes on a right answer and fails on a wrong one.

    python3 -m pytest perfbench/test_checks.py

Runs on small graphs in a few seconds.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gsdenoise as gd  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
from checks import CheckFailed  # noqa: E402

EPS, DELTA = 1.0, 1e-6


@pytest.fixture(scope="module")
def answer():
    """A grid-stream style request on a 24x24 grid, with everything the
    checks read."""
    g = gd.grid_graph(24, 24)
    f = gd.synth_signal(g, gd.SignalSpec(0.05, 2, seed=3))
    sigma = gd.calibrate_sigma(gd.PrivacyParams(EPS, DELTA))
    noisy, sigma = gd.sanitize(f, sigma, seed=4)
    config = gd.PipelineConfig(sigma=sigma)
    L = gd.laplacian(g)
    pou = gd.PartitionOfUnity.for_operator(L)
    weights = gd.estimate_diagonal_weights(L, pou, graph_hash=g.content_hash())
    L.reset_matvec_count()
    coeffs = gd.sgwt_forward_fast(L, noisy, pou)
    forward = L.matvec_count
    fhat, report = gd.denoise_pipeline(g, noisy, config, weights=weights,
                                       operator=L)
    return dict(g=g, f=f, sigma=sigma, noisy=noisy, L=L, pou=pou,
                weights=weights, coeffs=coeffs.values, forward=forward,
                fhat=fhat, report=report)


def test_analytic_mechanism():
    sigma = gd.calibrate_sigma(gd.PrivacyParams(EPS, DELTA))
    checks.analytic_mechanism(sigma, EPS, DELTA)
    with pytest.raises(CheckFailed):
        checks.analytic_mechanism(0.9 * sigma, EPS, DELTA)


def test_noise_level():
    clean = np.zeros(20000)
    noisy, sigma = gd.sanitize(clean, 3.0, seed=5)
    checks.noise_level(clean, noisy, sigma)
    with pytest.raises(CheckFailed):
        checks.noise_level(clean, noisy, 1.2 * sigma)
    with pytest.raises(CheckFailed):
        checks.noise_level(clean, noisy + 0.5, sigma)


def test_grid_lambda_max_matches_dense_spectrum():
    L = gd.laplacian(gd.grid_graph(7, 5), lambda_ub=1.0)
    dense = np.column_stack([L.matvec(e) for e in np.eye(L.n)])
    assert checks.grid_lambda_max(7, 5) == pytest.approx(
        np.linalg.eigvalsh(dense)[-1], rel=1e-12)


def test_spectral_bound(answer):
    lam = checks.grid_lambda_max(24, 24)
    checks.spectral_bound(answer["report"]["lambda_ub"], lam)
    with pytest.raises(CheckFailed):
        checks.spectral_bound(0.99 * lam, lam)
    with pytest.raises(CheckFailed):
        checks.spectral_bound(2.01, 1.9, normalized=True)


def test_edgelist_lambda_max_bounds_dense_spectrum(tmp_path):
    g = gd.random_connected_graph(300, seed=1)
    path = tmp_path / "g.txt"
    gd.write_edgelist(g, path)
    L = gd.laplacian(g, "normalized", lambda_ub=2.0)
    dense = np.column_stack([L.matvec(e) for e in np.eye(L.n)])
    exact = np.linalg.eigvalsh(dense)[-1]
    got = checks.edgelist_normalized_lambda_max(path)
    assert exact <= got <= exact + 1e-6


def test_matvec_counts(answer):
    assert answer["forward"] == 100
    checks.matvec_counts(100, 100, 101, N=10, weights=1000)
    for dropped in ((99, 101, 1000), (100, 100, 1000), (100, 101, 999)):
        with pytest.raises(CheckFailed):
            checks.matvec_counts(100, *dropped[:2], N=10, weights=dropped[2])


def test_tight_frame(answer):
    n = answer["g"].n
    checks.tight_frame(answer["coeffs"], answer["noisy"],
                       answer["weights"].diag, n)
    with pytest.raises(CheckFailed):
        checks.tight_frame(1.1 * answer["coeffs"], answer["noisy"],
                           answer["weights"].diag, n)
    with pytest.raises(CheckFailed):
        checks.tight_frame(answer["coeffs"], answer["noisy"],
                           0.9 * answer["weights"].diag, n)


def test_sure_value(answer):
    report = answer["report"]
    args = (answer["coeffs"], answer["g"].n, answer["weights"].diag,
            answer["sigma"], 2.0)
    checks.sure_value(report["sure"], *args, report["thresholds"])
    perturbed = [1.05 * t for t in report["thresholds"]]
    with pytest.raises(CheckFailed):
        checks.sure_value(report["sure"], *args, perturbed)
    with pytest.raises(CheckFailed):
        checks.sure_value(report["sure"], *args, report["thresholds"][:-1])


def test_js_shrink_matches_library_rule():
    x = np.random.default_rng(0).standard_normal(1000)
    x[:3] = (0.0, 0.7, -0.7)
    for beta in (1.0, 2.0, 5.0):
        h, d = checks.js_shrink(x, 0.7, beta)
        np.testing.assert_allclose(h, gd.js_threshold(x, 0.7, beta),
                                   rtol=1e-13, atol=0)
        np.testing.assert_allclose(d, gd.js_derivative(x, 0.7, beta),
                                   rtol=1e-13, atol=0)


def test_sure_vs_loss():
    rng = np.random.default_rng(2)
    n = 1000
    clean = np.concatenate([np.zeros(n), 5.0 * rng.standard_normal(n)])
    coeffs = clean + rng.standard_normal(2 * n)
    h = checks.shrink_all(coeffs, n, [1.0, 0.5], 2.0)
    loss = float((h - clean) @ (h - clean))
    checks.sure_vs_loss(loss, coeffs, clean, n, 2.0, [1.0, 0.5])
    with pytest.raises(checks.SureOffLoss):
        checks.sure_vs_loss(1.1 * loss, coeffs, clean, n, 2.0, [1.0, 0.5])
    with pytest.raises(checks.SureOffLoss):
        checks.sure_vs_loss(loss, coeffs, rng.permutation(clean), n, 2.0,
                            [1.0, 0.5])


def test_estimate(answer):
    f, noisy, fhat = answer["f"], answer["noisy"], answer["fhat"]
    snr_in, snr_out = checks.estimate(f, noisy, fhat)
    assert snr_out > snr_in
    for wrong in (fhat[:-1], np.where(np.arange(f.size) == 7, np.nan, fhat),
                  noisy + (noisy - fhat)):
        with pytest.raises(CheckFailed):
            checks.estimate(f, noisy, wrong)


def test_same_estimate(answer):
    fhat = answer["fhat"]
    checks.same_estimate(fhat.copy(), fhat)
    shuffled = np.random.default_rng(0).permutation(fhat)
    with pytest.raises(CheckFailed):
        checks.same_estimate(shuffled, fhat)


def test_nesting_check_catches_overlap_and_escape():
    S = spans.Span
    good = [S("request", None, 0.0, 10.0), S("a", 0, 1.0, 4.0),
            S("b", 1, 2.0, 3.0), S("c", 0, 5.0, 9.0)]
    kids = spans.children(good)
    spans.check_nesting(good, kids, 0)
    assert spans.self_times(good, kids) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    overlap = good[:3] + [S("c", 0, 3.5, 9.0)]
    escape = good[:2] + [S("b", 1, 2.0, 4.5)] + good[3:]
    for bad in (overlap, escape):
        with pytest.raises(ValueError):
            spans.check_nesting(bad, spans.children(bad), 0)


def test_tracer_counts_stage_matvecs():
    """The wrappers see the pipeline's own stages, record their matvecs,
    and pass results through unchanged."""
    g = gd.grid_graph(10, 10)
    noisy = gd.sanitize(np.ones(g.n), 0.5, seed=0)[0]
    config = gd.PipelineConfig(sigma=0.5, K=20, N=3)
    plain, _ = gd.denoise_pipeline(g, noisy, config)
    tracer = spans.Tracer()
    tracer.install(traced=True)
    with tracer.span("request"):
        traced, _ = gd.denoise_pipeline(g, noisy, config)
    np.testing.assert_array_equal(plain, traced)
    names = {(s.name, tracer.spans[s.parent].name if s.parent is not None
              else None): s.matvecs for s in tracer.spans}
    assert names[("chebyshev.sgwt_forward_fast", spans.PIPELINE)] == 20
    assert names[("chebyshev.sgwt_inverse_fast", spans.PIPELINE)] == 21
    assert names[("sure.estimate_diagonal_weights", spans.PIPELINE)] == 60
