"""End-to-end pipeline behavior and the command-line interface."""

import argparse
import csv
import dataclasses
import inspect
import math
import os
import tracemalloc

import numpy as np
import pytest

from gsdenoise.chebyshev import (apply_filter, band_coefficients,
                                 sgwt_forward_fast, sgwt_inverse_fast)
from gsdenoise.cli import _build_parser, main
from gsdenoise.frame import POU_KINDS, PartitionOfUnity
from gsdenoise.graph import (
    VARIANTS,
    grid_graph,
    laplacian,
    random_connected_graph,
    random_geometric_graph,
    read_edgelist,
    write_edgelist,
)
from gsdenoise import pipeline
from gsdenoise.pipeline import (PipelineConfig, denoise_pipeline,
                                frame_and_weights, weight_fingerprint)
from gsdenoise.signals import SignalSpec, read_signal, snr, synth_signal, \
    write_signal
from gsdenoise.sure import DISTRIBUTIONS, draw_probe, \
    estimate_diagonal_weights, load_weights, save_weights, sure_value
from gsdenoise.threshold import (ThresholdPolicy, js_derivative,
                                 js_threshold, select_thresholds_sure)
from oracles import shrink_with_derivatives


def _graph_and_signal(n=120, seed=3):
    g = random_geometric_graph(n, seed=seed)
    f = synth_signal(g, SignalSpec(0.05, 3, seed=1))
    return g, f


def test_config_validation_covers_every_field():
    bad = [
        dict(variant="fancy"),
        dict(kind="boxcar"),
        dict(b=1.0),
        dict(variant="normalized", b=2.5),
        dict(c=0.0),
        dict(K=0),
        dict(K=True),
        dict(K=30.0),
        dict(K=30.5),
        dict(N=0),
        dict(N=True),
        dict(N=2.5),
        dict(N=np.float64(3.0)),
        dict(distribution="uniform"),
        dict(beta=0.5),
        dict(sigma=-1.0),
        dict(sigma=np.inf),
        dict(jackson="no"),
        dict(jackson=2),
        dict(jackson=1),
        dict(seed=True),
        dict(seed=-1),
        dict(seed=1.5),
        dict(seed=np.float64(1.0)),
    ]
    for kwargs in bad:
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            PipelineConfig(**kwargs).validate()
    PipelineConfig().validate()
    with pytest.raises(ValueError, match=r"^K must be an integer, got True$"):
        PipelineConfig(K=True).validate()
    with pytest.raises(ValueError,
                       match=r"^jackson must be a bool, got 'no'$"):
        PipelineConfig(jackson="no").validate()
    with pytest.raises(ValueError, match=r"^seed must be a nonnegative "
                                         r"integer, got True$"):
        PipelineConfig(seed=True).validate()
    # numpy integers are integers, and numpy bools are bools
    PipelineConfig(K=np.int64(30), N=np.int32(2), seed=np.int64(3),
                   jackson=np.bool_(False)).validate()
    PipelineConfig(seed=0, jackson=False).validate()


def test_config_validation_raises_where_its_modules_do():
    # each precondition has one raise site: validate calls the check of
    # the module that owns the field, so the message is the module's
    L = laplacian(grid_graph(3, 3), "normalized")
    owners = [
        (dict(variant="fancy"), lambda: laplacian(grid_graph(3, 3), "fancy")),
        (dict(kind="boxcar"), lambda: PartitionOfUnity("boxcar", 2.0, 1.0)),
        (dict(b=1.0), lambda: PartitionOfUnity("linear", 1.0, 1.0)),
        (dict(variant="normalized", b=2.5),
         lambda: PartitionOfUnity.for_operator(L, b=2.5)),
        (dict(c=0.0), lambda: PartitionOfUnity("linear", 2.0, 1.0, c=0.0)),
        *((dict(N=N), lambda N=N: estimate_diagonal_weights(
            L, PartitionOfUnity.for_operator(L), N=N))
          for N in (0, True, 2.5)),
        *((dict(seed=seed), lambda seed=seed: estimate_diagonal_weights(
            L, PartitionOfUnity.for_operator(L), seed=seed))
          for seed in (True, -1, 1.5)),
        (dict(jackson=2), lambda: estimate_diagonal_weights(
            L, PartitionOfUnity.for_operator(L), jackson=2)),
        (dict(distribution="uniform"),
         lambda: draw_probe(9, "uniform", 0, 0)),
        (dict(beta=0.5), lambda: ThresholdPolicy(0.5, [0.0])),
        (dict(sigma=np.inf), lambda: sure_value(None, None, None, np.inf,
                                                None)),
    ]
    for kwargs, owner in owners:
        with pytest.raises(ValueError) as want:
            owner()
        with pytest.raises(ValueError) as got:
            PipelineConfig(**kwargs).validate()
        assert str(got.value) == str(want.value), kwargs


def test_library_defaults_mirror_the_config():
    # a library default that mirrors a config field is that field's default,
    # so a library call and a default pipeline run do the same work
    config = {f.name: f.default for f in dataclasses.fields(PipelineConfig)}
    chebyshev = {"K": "K", "jackson": "jackson"}
    mirrors = [
        (sgwt_forward_fast, chebyshev),
        (sgwt_inverse_fast, chebyshev),
        (apply_filter, chebyshev),
        (band_coefficients, {"jackson": "jackson"}),  # K has no default
        (estimate_diagonal_weights, dict(chebyshev, N="N",
                                         dist="distribution", seed="seed")),
        (PartitionOfUnity.for_operator, {"kind": "kind", "b": "b", "c": "c"}),
        (laplacian, {"variant": "variant"}),
        (select_thresholds_sure, {"beta": "beta"}),
        (js_threshold, {"beta": "beta"}),
        (js_derivative, {"beta": "beta"}),
    ]
    for fn, fields in mirrors:
        params = inspect.signature(fn).parameters
        for param, name in fields.items():
            assert params[param].default == config[name], (fn.__name__, param)


def test_sigma_is_required():
    g, f = _graph_and_signal(40)
    with pytest.raises(ValueError, match="sigma"):
        denoise_pipeline(g, f, PipelineConfig())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_sample_is_rejected_with_its_index(bad):
    g, f = _graph_and_signal(40)
    f = f.copy()
    f[[7, 21]] = bad
    with pytest.raises(ValueError, match="sample 7 "):
        denoise_pipeline(g, f, PipelineConfig(sigma=1.0))


def test_noiseless_input_with_tiny_sigma_passes_through():
    # SURE drives every threshold to zero, leaving pure round-trip error;
    # undamped coefficients keep that error inside the documented bound
    g, f = _graph_and_signal()
    fhat, report = denoise_pipeline(
        g, f, PipelineConfig(sigma=1e-8, jackson=False))
    assert np.linalg.norm(fhat - f) <= 2e-2 * np.linalg.norm(f)
    assert all(t == 0.0 for t in report["thresholds"])
    # the damped default meets the same bound on a regular lattice
    gg = grid_graph(12, 10)
    ff = synth_signal(gg, SignalSpec(0.05, 3, seed=1))
    fhat, report = denoise_pipeline(gg, ff, PipelineConfig(sigma=1e-8))
    assert np.linalg.norm(fhat - ff) <= 2e-2 * np.linalg.norm(ff)


def test_pipeline_deterministic_given_config():
    g, f = _graph_and_signal(80)
    noisy = f + 2.0 * np.random.default_rng(5).standard_normal(g.n)
    cfg = PipelineConfig(sigma=2.0, seed=9)
    a, ra = denoise_pipeline(g, noisy, cfg)
    b, rb = denoise_pipeline(g, noisy, cfg)
    assert np.array_equal(a, b)
    assert ra["thresholds"] == rb["thresholds"]
    assert ra["sure"] == rb["sure"]
    assert ra["fingerprint"] == rb["fingerprint"]


def test_weight_cache_hit_miss_and_mismatch():
    g, f = _graph_and_signal(60)
    noisy = f + np.random.default_rng(0).standard_normal(g.n)
    cfg = PipelineConfig(sigma=1.0)
    _, miss = denoise_pipeline(g, noisy, cfg)
    assert miss["cache"] == "miss"

    L = laplacian(g, cfg.variant)
    pou = PartitionOfUnity.for_operator(L)
    good = estimate_diagonal_weights(L, pou, K=cfg.K, N=cfg.N,
                                     seed=cfg.seed,
                                     graph_hash=g.content_hash())
    _, hit = denoise_pipeline(g, noisy, cfg, weights=good)
    assert hit["cache"] == "hit" and not hit["warnings"]

    stale = estimate_diagonal_weights(L, pou, K=cfg.K, N=cfg.N, seed=77,
                                      graph_hash=g.content_hash())
    fhat_stale, mm = denoise_pipeline(g, noisy, cfg, weights=stale)
    assert mm["cache"] == "mismatch-recomputed"
    assert any("recomputed" in w for w in mm["warnings"])
    fhat_miss, _ = denoise_pipeline(g, noisy, cfg)
    assert np.array_equal(fhat_stale, fhat_miss)  # stale cache never used


def test_frame_and_weights_is_what_the_config_asks_for():
    # the partition of the config's kind, b and c, and the estimate of its
    # K, jackson, N, distribution and seed; a matching cache is returned
    # as it is, and a pipeline run takes the estimate as a hit
    g, f = _graph_and_signal(60)
    cfg = PipelineConfig(sigma=1.0, kind="smooth", b=1.7, c=0.8, K=30,
                         jackson=False, N=2, distribution="gaussian", seed=3)
    L = laplacian(g, cfg.variant)
    graph_hash = g.content_hash()
    pou, est = frame_and_weights(L, cfg, graph_hash)
    want = PartitionOfUnity.for_operator(L, kind="smooth", b=1.7, c=0.8)
    assert pou.fingerprint() == want.fingerprint()
    ref = estimate_diagonal_weights(L, want, K=30, jackson=False, N=2,
                                    dist="gaussian", seed=3,
                                    graph_hash=graph_hash)
    expected = weight_fingerprint(graph_hash, pou, cfg)
    assert est.fingerprint() == ref.fingerprint() == expected
    assert est.diag.tobytes() == ref.diag.tobytes()
    assert frame_and_weights(L, cfg, graph_hash, cached=est)[1] is est
    other = dataclasses.replace(cfg, seed=4)
    fresh = frame_and_weights(L, other, graph_hash, cached=est)[1]
    assert fresh is not est and fresh.seed == 4

    _, hit = denoise_pipeline(g, f, cfg, weights=est)
    assert hit["cache"] == "hit" and hit["fingerprint"] == expected
    _, mm = denoise_pipeline(g, f, other, weights=est)
    assert mm["cache"] == "mismatch-recomputed"
    assert mm["fingerprint"] == fresh.fingerprint()
    assert mm["warnings"] == [
        "cached weights do not match the current configuration; "
        f"recomputed (cache {expected!r} vs expected "
        f"{weight_fingerprint(graph_hash, pou, other)!r})"]


def _weights_for(g, cfg, variant=None, graph_hash=None):
    L = laplacian(g, variant or cfg.variant)
    pou = PartitionOfUnity.for_operator(L)
    return estimate_diagonal_weights(
        L, pou, K=cfg.K, N=cfg.N, seed=cfg.seed,
        graph_hash=g.content_hash() if graph_hash is None else graph_hash)


def test_cache_with_the_earlier_band_count_is_recomputed():
    # the grid's bound is its cap 8 = 2^3, so J is 4; the earlier count,
    # floor(log_2 8) + 2, gave J = 5 and a sixth block of zeros
    g = grid_graph(12, 10)
    noisy = np.random.default_rng(2).standard_normal(g.n)
    cfg = PipelineConfig(sigma=1.0)
    fresh = _weights_for(g, cfg)
    assert fresh.J == 4 and ",J=4" in fresh.pou
    old = dataclasses.replace(
        fresh, diag=np.concatenate([fresh.diag, np.zeros(g.n)]), J=5,
        pou=fresh.pou.replace(",J=4", ",J=5"))
    fhat_old, report = denoise_pipeline(g, noisy, cfg, weights=old)
    assert report["cache"] == "mismatch-recomputed"
    assert any("do not match" in w for w in report["warnings"])
    assert report["bound"]["source"] == "lanczos"
    fhat, fresh_report = denoise_pipeline(g, noisy, cfg, weights=fresh)
    assert fresh_report["cache"] == "hit"
    assert np.array_equal(fhat_old, fhat)
    assert len(report["thresholds"]) == 5


@pytest.mark.parametrize("variant",
                         ["unnormalized", "normalized", "random_walk"])
def test_bound_from_weights_matches_passed_operator(variant):
    g, f = _graph_and_signal(70)
    noisy = f + np.random.default_rng(1).standard_normal(g.n)
    cfg = PipelineConfig(variant=variant, sigma=1.0)
    est = _weights_for(g, cfg)
    a, ra = denoise_pipeline(g, noisy, cfg, weights=est)
    b, rb = denoise_pipeline(g, noisy, cfg, weights=est,
                             operator=laplacian(g, variant))
    assert np.array_equal(a, b)
    assert ra["thresholds"] == rb["thresholds"]
    assert ra["sure"] == rb["sure"]
    assert ra["fingerprint"] == rb["fingerprint"]
    assert ra["cache"] == rb["cache"] == "hit"
    # the weights carry no bound: the pipeline builds the operator's own
    assert ra["lambda_ub"] == rb["lambda_ub"]
    own = "lanczos" if variant == "unnormalized" else "cap"
    assert ra["bound"]["source"] == own
    # an operator reports what its own bound cost when it was built
    assert rb["bound"]["source"] == "operator"
    assert ra["bound"]["matvecs"] == rb["bound"]["matvecs"]
    assert (rb["bound"]["matvecs"] > 0) == (variant == "unnormalized")


def _through_file(est, tmp_path):
    path = tmp_path / "w.txt"
    save_weights(path, est)
    assert "# lambda_ub" not in path.read_text()
    return load_weights(path)


@pytest.mark.parametrize("case, variant, cache, warned", [
    ("other-graph", "unnormalized", "mismatch-recomputed", False),
    ("other-variant", "unnormalized", "mismatch-recomputed", False),
    ("no-bound-line", "normalized", "hit", False),
])
def test_bound_falls_back_to_lanczos(case, variant, cache, warned, tmp_path):
    # whatever the weights, the bound is the operator's own: Lanczos for
    # the unnormalized variant, the cap 2 for the normalized one
    g, f = _graph_and_signal(60)
    noisy = f + np.random.default_rng(2).standard_normal(g.n)
    cfg = PipelineConfig(variant=variant, sigma=1.0)
    if case == "other-graph":
        est = _weights_for(g, cfg, graph_hash="0" * 16)
    elif case == "other-variant":
        est = _weights_for(g, cfg, variant="normalized")
    else:
        est = _through_file(_weights_for(g, cfg), tmp_path)
    fhat, report = denoise_pipeline(g, noisy, cfg, weights=est)
    lanczos = variant == "unnormalized"
    assert report["bound"]["source"] == ("lanczos" if lanczos else "cap")
    assert (report["bound"]["matvecs"] > 0) == lanczos
    assert report["cache"] == cache
    assert any("Lanczos" in w for w in report["warnings"]) == warned
    # the operator's own bound, so the same answer as with one passed in
    ref, ref_report = denoise_pipeline(g, noisy, cfg, weights=est,
                                       operator=laplacian(g, variant))
    assert np.array_equal(fhat, ref)
    assert report["lambda_ub"] == ref_report["lambda_ub"]


@pytest.mark.parametrize("variant, cache", [
    ("unnormalized", "hit"), ("normalized", "mismatch-recomputed")])
def test_cache_with_a_bound_line_is_matched_by_its_partition(variant, cache,
                                                             tmp_path):
    # caches written when the estimate carried its bound have a
    # "# lambda_ub" line, now ignored; their partition holds the bound by
    # repr. The unnormalized one came from Lanczos then as now and hits;
    # the normalized one holds a Lanczos value under 2 where the bound is
    # now the cap 2, so it is recomputed
    g, f = _graph_and_signal(60)
    noisy = f + np.random.default_rng(2).standard_normal(g.n)
    cfg = PipelineConfig(variant=variant, sigma=1.0)
    est = _weights_for(g, cfg)
    path = tmp_path / "w.txt"
    save_weights(path, est)
    ub = laplacian(g, variant).lambda_ub
    old = ub if variant == "unnormalized" else 1.9471808144609681
    head = f"# graph_hash = {g.content_hash()}\n"
    text = path.read_text().replace(f"lambda_ub={ub!r},",
                                    f"lambda_ub={old!r},")
    path.write_text(text.replace(head, head + f"# lambda_ub = {old!r}\n"))
    assert f"# lambda_ub = {old!r}\n" in path.read_text()
    fhat, report = denoise_pipeline(g, noisy, cfg, weights=load_weights(path))
    assert report["cache"] == cache
    assert any("do not match" in w
               for w in report["warnings"]) == (cache != "hit")
    ref, _ = denoise_pipeline(g, noisy, cfg, weights=est)
    assert np.array_equal(fhat, ref)


def test_denoising_gains_at_matched_noise():
    g = random_geometric_graph(300, seed=2)
    f = synth_signal(g, SignalSpec(0.02, 4, seed=4))
    sigma = np.linalg.norm(f) / np.sqrt(g.n)  # input around 0 dB
    noisy = f + sigma * np.random.default_rng(8).standard_normal(g.n)
    fhat, report = denoise_pipeline(g, noisy, PipelineConfig(sigma=sigma))
    assert snr(f, fhat) > snr(f, noisy)
    assert set(report["timings_ms"]) == {"setup", "forward", "weights",
                                         "select", "apply", "inverse"}


@pytest.mark.parametrize("target_db", [30.0, 40.0])
def test_output_snr_not_below_input_at_high_snr(target_db):
    # criterion 7's graph and recipe at an input SNR above the adjoint's
    # round trip (28.3 dB): synthesis through the dual does not lose
    # signal (30.40 and 40.12 dB out), where the adjoint gave 26.10 and
    # 27.94 dB
    g = random_geometric_graph(500, seed=0)
    f = synth_signal(g, SignalSpec(0.01, 4, seed=0))
    L = laplacian(g)
    est = estimate_diagonal_weights(L, PartitionOfUnity.for_operator(L),
                                    N=PipelineConfig.N, seed=0,
                                    graph_hash=g.content_hash())
    sigma = np.linalg.norm(f) / (np.sqrt(g.n) * 10 ** (target_db / 20))
    snr_in, snr_out = [], []
    for seed in range(5):
        noisy = f + sigma * np.random.default_rng(seed).standard_normal(g.n)
        fhat, _ = denoise_pipeline(g, noisy, PipelineConfig(sigma=sigma),
                                   weights=est, operator=L)
        snr_in.append(snr(f, noisy))
        snr_out.append(snr(f, fhat))
    assert np.mean(snr_out) >= np.mean(snr_in)


def test_report_carries_scale_count_and_bound():
    g, f = _graph_and_signal(50)
    _, report = denoise_pipeline(g, f, PipelineConfig(sigma=0.5))
    assert report["n"] == g.n
    assert len(report["thresholds"]) == report["J"] + 1
    assert report["lambda_ub"] > 0


def test_report_counts_matvecs_per_stage():
    g = grid_graph(20, 20)
    f = np.random.default_rng(1).standard_normal(g.n)
    config = PipelineConfig(K=30, N=4, sigma=1.0)
    _, cold = denoise_pipeline(g, f, config)
    assert cold["matvecs"] == {"weights": 4 * 30, "forward": 30,
                               "inverse": 31}
    # deltas of a counter that is never reset
    L = laplacian(g)
    L.matvec_count = 1000
    pou = PartitionOfUnity.for_operator(L)
    weights = estimate_diagonal_weights(L, pou, K=30, N=4,
                                        graph_hash=g.content_hash())
    _, warm = denoise_pipeline(g, f, config, weights=weights, operator=L)
    assert warm["matvecs"] == {"weights": 0, "forward": 30, "inverse": 31}
    assert L.matvec_count == 1000 + 4 * 30 + 30 + 31


@pytest.mark.parametrize("variant", VARIANTS)
def test_reported_sure_is_that_of_a_bare_forward_transform(variant):
    # each threshold is one of the coefficient magnitudes, so coefficients
    # one ulp away from a bare forward transform's would move a kink term
    g = random_connected_graph(400, seed=3)
    f = synth_signal(g, SignalSpec(0.05, 3, seed=1))
    noisy = f + 0.4 * np.random.default_rng(2).standard_normal(g.n)
    config = PipelineConfig(variant=variant, K=60, N=4, sigma=0.4)
    _, report = denoise_pipeline(g, noisy, config)
    L = laplacian(g, variant, lambda_ub=report["lambda_ub"])
    pou = PartitionOfUnity.for_operator(L)
    coeffs = sgwt_forward_fast(L, noisy, pou, K=config.K)
    weights = estimate_diagonal_weights(L, pou, K=config.K, N=config.N)
    policy = ThresholdPolicy(config.beta, report["thresholds"])
    thresholded, derivs = shrink_with_derivatives(coeffs, policy)
    sure = sure_value(coeffs, thresholded, derivs, config.sigma,
                      weights.diag)
    assert sure == pytest.approx(report["sure"], rel=1e-12, abs=0)


def test_pipeline_peak_memory_in_signal_vectors():
    # a cold request peaks in the weight estimate, as the probe transforms'
    # ring, outputs and running sum turn into the mean (21.0 vectors
    # measured, J = 4). With the operator and weights passed in it peaks in
    # the synthesis (12.0): thresholded values, the unnormalized step's
    # scaled weights, the recurrence's two buffers and the estimate. The
    # selection reports SURE, so no derivative array is made, and the
    # coefficients are freed before the synthesis.
    config = PipelineConfig(N=2, sigma=1.0)
    # warms the caches: the 30x30 grid has the same bound, 8, as 300x300
    denoise_pipeline(grid_graph(30, 30), np.ones(900), config)
    g = grid_graph(300, 300)
    noisy = np.random.default_rng(0).standard_normal(g.n)

    def peak(**kw):
        tracemalloc.start()
        try:
            denoise_pipeline(g, noisy, config, **kw)
            return tracemalloc.get_traced_memory()[1] / (8 * g.n)
        finally:
            tracemalloc.stop()

    cold = peak()
    L = laplacian(g)
    weights = estimate_diagonal_weights(L, PartitionOfUnity.for_operator(L),
                                        N=config.N,
                                        graph_hash=g.content_hash())
    reuse = peak(operator=L, weights=weights)
    assert cold <= 23
    assert reuse <= 13


def _status_mb(field):
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="VmHWM is read from Linux's /proc/self/status")
def test_report_carries_the_process_peak_rss(monkeypatch, tmp_path):
    g = grid_graph(12, 12)
    before = _status_mb("VmHWM")
    _, report = denoise_pipeline(g, np.ones(g.n), PipelineConfig(sigma=0.5))
    assert before <= report["peak_rss_mb"] <= _status_mb("VmHWM")
    monkeypatch.setattr(pipeline, "PROC_STATUS", str(tmp_path / "absent"))
    _, report = denoise_pipeline(g, np.ones(g.n), PipelineConfig(sigma=0.5))
    assert report["peak_rss_mb"] is None


def test_operator_reuse_must_match_graph():
    g, f = _graph_and_signal(40)
    other = laplacian(random_geometric_graph(40, seed=9), "unnormalized")
    with pytest.raises(ValueError, match="operator"):
        denoise_pipeline(g, f, PipelineConfig(sigma=1.0), operator=other)


# -- command-line interface -------------------------------------------------

@pytest.fixture
def workspace(tmp_path):
    g = random_geometric_graph(150, seed=6)
    gpath = tmp_path / "graph.txt"
    write_edgelist(g, gpath)
    return tmp_path, g, str(gpath)


def test_cli_graph_info(workspace, capsys):
    tmp, g, gpath = workspace
    assert main(["graph-info", gpath]) == 0
    out = capsys.readouterr().out
    # printed by repr, so it can be matched against a weight cache's pou
    ub = laplacian(read_edgelist(gpath)).lambda_ub
    assert out == f"n={g.n} m={g.m} lambda_ub={ub!r}\n"
    assert main(["graph-info", gpath, "--variant", "normalized"]) == 0
    assert capsys.readouterr().out == f"n={g.n} m={g.m} lambda_ub=2.0\n"


def test_cli_synth_sanitize_denoise_eval(workspace, capsys):
    tmp, g, gpath = workspace
    fpath, npath, dpath = (str(tmp / x) for x in ("f.txt", "noisy.txt",
                                                  "fhat.txt"))
    assert main(["synth", gpath, "-o", fpath, "--p", "0.05", "--k", "3",
                 "--seed", "2"]) == 0
    f, header = read_signal(fpath)
    assert header["p"] == "0.05" and f.size == g.n

    assert main(["sanitize", fpath, "-o", npath, "--epsilon", "1",
                 "--seed", "5"]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("sigma=4.22")
    noisy, nheader = read_signal(npath)
    # the printed sigma is the exact one added, so it can go to --sigma as is
    assert printed.strip() == f"sigma={nheader['sigma']}"
    sigma = float(nheader["sigma"])
    assert sigma == pytest.approx(4.2247, abs=5e-4)
    assert nheader["mechanism"] == "analytic"

    assert main(["denoise", gpath, npath, "-o", dpath,
                 "--sigma", repr(sigma)]) == 0
    out = capsys.readouterr().out
    assert "cache=miss" in out and "sure=" in out
    assert "wall_ms_forward=" in out
    weights = PipelineConfig.N * PipelineConfig.K
    assert (f"matvecs_weights={weights}\nmatvecs_forward=100\n"
            "matvecs_inverse=101\n") in out
    assert "\npeak_rss_mb=" in out

    assert main(["eval", fpath, dpath]) == 0
    line = capsys.readouterr().out
    assert line.startswith("snr=") and " mse=" in line


def test_cli_eval_identical_files_prints_inf_zero(workspace, capsys):
    tmp, g, gpath = workspace
    spath = str(tmp / "s.txt")
    write_signal(spath, np.arange(1.0, 5.0))
    assert main(["eval", spath, spath]) == 0
    assert capsys.readouterr().out == "snr=inf mse=0\n"


def test_cli_weights_then_denoise_hits_cache(workspace, capsys):
    tmp, g, gpath = workspace
    fpath = str(tmp / "f.txt")
    wpath = str(tmp / "w.txt")
    opath = str(tmp / "out.txt")
    main(["synth", gpath, "-o", fpath])
    assert main(["weights", gpath, "-o", wpath]) == 0
    capsys.readouterr()
    assert main(["denoise", gpath, fpath, "-o", opath, "--sigma", "1.0",
                 "--weights", wpath]) == 0
    out = capsys.readouterr().out
    assert "cache=hit" in out and "bound_source=lanczos" in out
    # the cached weights give the file a cold run writes
    cold = str(tmp / "cold.txt")
    assert main(["denoise", gpath, fpath, "-o", cold, "--sigma", "1.0"]) == 0
    assert "bound_source=lanczos" in capsys.readouterr().out
    with open(opath) as a, open(cold) as b:
        assert a.read() == b.read()
    # a cache built under different settings is refused and recomputed
    assert main(["denoise", gpath, fpath, "-o", opath, "--sigma", "1.0",
                 "--weights", wpath,
                 "--N", str(PipelineConfig.N + 1)]) == 0
    captured = capsys.readouterr()
    assert "cache=mismatch-recomputed" in captured.out
    assert "bound_source=lanczos" in captured.out
    assert "warning" in captured.err


def test_cli_denoise_prints_io_stage_times(workspace, capsys):
    tmp, g, gpath = workspace
    fpath, wpath, opath = (str(tmp / x) for x in ("f.txt", "w.txt", "o.txt"))
    main(["synth", gpath, "-o", fpath])
    main(["weights", gpath, "-o", wpath])
    capsys.readouterr()
    assert main(["denoise", gpath, fpath, "-o", opath, "--sigma", "1.0",
                 "--weights", wpath]) == 0
    fields = dict(line.split("=", 1)
                  for line in capsys.readouterr().out.splitlines())
    for stage in ("read_graph", "read_signal", "load_weights", "write",
                  "setup", "forward", "weights", "select", "apply",
                  "inverse"):
        ms = float(fields[f"wall_ms_{stage}"])
        assert math.isfinite(ms) and ms >= 0


def test_cli_config_flags_are_the_config_fields():
    config = PipelineConfig()
    choices = {"variant": VARIANTS, "kind": POU_KINDS,
               "distribution": DISTRIBUTIONS}
    names = {f.name for f in dataclasses.fields(PipelineConfig)} - {"sigma"}
    (action,) = [a for a in _build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    subparsers = action.choices
    assert set(subparsers) == {"graph-info", "synth", "sanitize", "weights",
                               "denoise", "eval", "bench"}
    for command in ("weights", "denoise", "bench"):
        flags = {a.dest: a for a in subparsers[command]._actions}
        assert names <= set(flags), command
        for name in names:
            assert flags[name].default == getattr(config, name), (command,
                                                                  name)
            assert flags[name].choices == choices.get(name), (command, name)
        assert flags["jackson"].option_strings == ["--jackson",
                                                   "--no-jackson"]


def test_cli_other_subcommands_take_only_the_config_flags_they_read():
    # each from its PipelineConfig field, as the generated flags are
    config = PipelineConfig()
    fields = {f.name: f for f in dataclasses.fields(PipelineConfig)}
    (action,) = [a for a in _build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    for command, read in (("graph-info", {"variant"}), ("synth", {"seed"}),
                          ("sanitize", {"seed"}), ("eval", set())):
        flags = {a.dest: a for a in action.choices[command]._actions}
        assert set(fields) & set(flags) - {"sigma"} == read, command
        for name in read:
            assert flags[name].option_strings == [f"--{name}"]
            assert flags[name].default == getattr(config, name), command
            assert flags[name].type is fields[name].type, command
            assert flags[name].choices == fields[name].metadata["choices"]
    assert fields["variant"].metadata["choices"] == VARIANTS


@pytest.mark.parametrize("argv", [["--K", "5"], ["--variant", "normalized"],
                                  ["--N", "99"]])
def test_cli_eval_refuses_config_flags_it_does_not_read(workspace, argv):
    tmp, g, gpath = workspace
    spath = str(tmp / "s.txt")
    write_signal(spath, np.arange(1.0, 5.0))
    with pytest.raises(SystemExit) as exc:
        main(["eval", spath, spath] + argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["--variant", "fancy"], ["--distribution", "uniform"], ["--P", "50"],
    ["--K", "ten"]])
def test_cli_bad_config_flag_is_usage_error(workspace, argv):
    tmp, g, gpath = workspace
    with pytest.raises(SystemExit) as exc:
        main(["weights", gpath, "-o", str(tmp / "w.txt")] + argv)
    assert exc.value.code == 2


def test_cli_missing_sigma_is_usage_error(workspace):
    tmp, g, gpath = workspace
    with pytest.raises(SystemExit) as exc:
        main(["denoise", gpath, gpath, "-o", str(tmp / "x.txt")])
    assert exc.value.code == 2


def test_cli_sanitize_refuses_nonfinite_samples(tmp_path, capsys):
    spath, npath = tmp_path / "s.txt", tmp_path / "n.txt"
    spath.write_text("1.0\nnan\ninf\n")
    assert main(["sanitize", str(spath), "-o", str(npath),
                 "--sigma", "1.0"]) == 1
    assert "signal sample 1 is" in capsys.readouterr().err
    assert not npath.exists()


def test_cli_computation_error_exits_one(tmp_path, capsys):
    assert main(["graph-info", str(tmp_path / "missing.txt")]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_bench_csv_shape(workspace):
    tmp, g, gpath = workspace
    out = str(tmp / "bench.csv")
    assert main(["bench", gpath, "-o", out, "--reps", "5", "--epsilon", "1",
                 "--K", "40", "--p", "0.05", "--k", "3"]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["run", "epsilon", "sigma", "snr_in", "snr_out",
                       "sure", "wall_ms_setup", "wall_ms_forward",
                       "wall_ms_weights", "wall_ms_select", "wall_ms_apply",
                       "wall_ms_inverse"]
    assert len(rows) == 6
    assert [r[0] for r in rows[1:]] == ["0", "1", "2", "3", "4"]
    assert all(r[1] == "1.0" for r in rows[1:])
    sigmas = {r[2] for r in rows[1:]}
    assert len(sigmas) == 1  # one sweep level, same calibrated scale


def test_cli_bench_direct_sigma_leaves_epsilon_blank(workspace):
    tmp, g, gpath = workspace
    out = str(tmp / "bench.csv")
    assert main(["bench", gpath, "-o", out, "--reps", "2",
                 "--sigma", "0.5", "--sigma", "1.5", "--K", "30"]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 5  # header + 2 levels x 2 reps
    assert all(r[1] == "" for r in rows[1:])
    assert {r[2] for r in rows[1:]} == {"0.5", "1.5"}


def test_cli_bench_estimates_the_weights_once(workspace, monkeypatch):
    # every row still reports what a call with fresh weights gives, on the
    # noise run r has always drawn
    tmp, g, gpath = workspace
    out = str(tmp / "bench.csv")
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return estimate_diagonal_weights(*args, **kwargs)

    monkeypatch.setattr("gsdenoise.pipeline.estimate_diagonal_weights",
                        counted)
    assert main(["bench", gpath, "-o", out, "--reps", "2", "--sigma", "0.5",
                 "--sigma", "1.5", "--K", "30", "--N", "3"]) == 0
    assert len(calls) == 1
    g = read_edgelist(gpath)
    f = synth_signal(g, SignalSpec(0.01, 4))
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    for row in rows:
        sigma = float(row["sigma"])
        rng = np.random.default_rng(
            np.random.SeedSequence((0, int(row["run"]), 1)))
        noisy = f + sigma * rng.standard_normal(g.n)
        fhat, report = denoise_pipeline(
            g, noisy, PipelineConfig(sigma=sigma, K=30, N=3))
        assert report["cache"] == "miss"
        assert row["snr_in"] == f"{snr(f, noisy):.6f}"
        assert row["snr_out"] == f"{snr(f, fhat):.6f}"
        assert row["sure"] == repr(report["sure"])


def test_cli_bench_noise_is_not_a_weight_probe(workspace, monkeypatch):
    # run r's noise and probe r of the weight estimate come from different
    # generator keys, so the noise is not the vector the weights are made of
    tmp, g, gpath = workspace
    noisy = []

    def spy(graph, signal, config, **kwargs):
        noisy.append(signal.copy())
        return denoise_pipeline(graph, signal, config, **kwargs)

    monkeypatch.setattr("gsdenoise.cli.denoise_pipeline", spy)
    assert main(["bench", gpath, "-o", str(tmp / "bench.csv"), "--sigma", "1",
                 "--reps", "2", "--N", "2", "--distribution", "gaussian",
                 "--seed", "3", "--K", "30"]) == 0
    g = read_edgelist(gpath)
    f = synth_signal(g, SignalSpec(0.01, 4))
    assert len(noisy) == 2
    for run, x in enumerate(noisy):
        assert not np.allclose(x - f, draw_probe(g.n, "gaussian", 3, run))


@pytest.mark.parametrize("reps", ["0", "-1"])
def test_cli_bench_refuses_fewer_than_one_rep(workspace, capsys, reps):
    # refused before the CSV is opened, so no header-only file is left
    tmp, g, gpath = workspace
    out = tmp / "bench.csv"
    assert main(["bench", gpath, "-o", str(out), "--sigma", "1",
                 "--reps", reps]) == 1
    assert "reps must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_shared_flags_are_declared_alike():
    # each flag two subcommands share has one declaration: the same
    # spelling, type, default, choices and help wherever it is taken
    (action,) = [a for a in _build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    shared = {"--delta": ("sanitize", "bench"),
              "--sensitivity": ("sanitize", "bench"),
              "--mechanism": ("sanitize", "bench"),
              "--p": ("synth", "bench"), "--k": ("synth", "bench"),
              "--graph": ("sanitize", "eval")}
    for flag, commands in shared.items():
        declared = set()
        for command in commands:
            (a,) = [a for a in action.choices[command]._actions
                    if flag in a.option_strings]
            declared.add((tuple(a.option_strings), a.type, a.default,
                          a.choices, a.help))
        assert len(declared) == 1, flag


def test_cli_bench_requires_exactly_one_sweep(workspace, capsys):
    tmp, g, gpath = workspace
    out = str(tmp / "bench.csv")
    assert main(["bench", gpath, "-o", out]) == 1
    assert main(["bench", gpath, "-o", out, "--epsilon", "1",
                 "--sigma", "2"]) == 1
