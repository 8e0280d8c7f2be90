"""The scripts under tools/ run the library's API as it stands."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np

from gsdenoise.chebyshev import sgwt_forward_fast
from gsdenoise.frame import PartitionOfUnity
from gsdenoise.graph import grid_graph, laplacian
from gsdenoise.pipeline import PipelineConfig, denoise_pipeline
from gsdenoise.signals import snr
from gsdenoise.sure import estimate_diagonal_weights
from gsdenoise.threshold import ThresholdPolicy, apply_policy

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load_tool(name, monkeypatch):
    """Import tools/<name>.py as a module. The tools pin BLAS to one thread
    through the environment and put src/ on sys.path when imported; both
    are undone after the test."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probe_sweep_estimates_are_the_pipelines(monkeypatch):
    # each N's estimate is the one a pipeline run with that N takes as a
    # hit, made on the configuration's partition
    sweep = _load_tool("probe_sweep", monkeypatch)
    monkeypatch.setattr(sweep, "PROBE_COUNTS", (1, 3))
    g = grid_graph(20, 20)
    config = PipelineConfig(K=30, kind="smooth", c=0.7, seed=2)
    L = laplacian(g)
    pou, weights, seconds = sweep.estimate_weights(L, config,
                                                   g.content_hash())
    assert pou.fingerprint() == PartitionOfUnity.for_operator(
        L, kind="smooth", c=0.7).fingerprint()
    assert sorted(weights) == sorted(seconds) == [1, 3]
    _, noisy, sigma = sweep.draw_input(g, 1000, 1500, 1.0)
    for N, est in weights.items():
        run = dataclasses.replace(config, N=N, sigma=sigma)
        _, report = denoise_pipeline(g, noisy, run, weights=est, operator=L)
        assert report["cache"] == "hit", N


def test_probe_sweep_denoises_as_the_pipeline_does(monkeypatch):
    # each N's gain is that of a pipeline run on the same weights, and its
    # gap is the reported SURE against the coefficient loss
    sweep = _load_tool("probe_sweep", monkeypatch)
    g = grid_graph(20, 20)
    config = PipelineConfig(K=30)
    L = laplacian(g)
    pou = PartitionOfUnity.for_operator(L)
    weights = {N: estimate_diagonal_weights(L, pou, K=config.K, N=N,
                                            graph_hash=g.content_hash())
               for N in (1, 3)}
    f, noisy, sigma = sweep.draw_input(g, 1000, 1500, 1.0)
    gain, gap = sweep.denoise_each(L, pou, config, weights, f, noisy, sigma)
    assert sorted(gain) == sorted(gap) == [1, 3]
    clean = sgwt_forward_fast(L, f, pou, K=config.K).values
    coeffs = sgwt_forward_fast(L, noisy, pou, K=config.K)
    for N, est in weights.items():
        run = dataclasses.replace(config, N=N, sigma=sigma)
        fhat, report = denoise_pipeline(g, noisy, run, weights=est,
                                        operator=L)
        assert report["cache"] == "hit"
        assert gain[N] == snr(f, fhat) - snr(f, noisy)
        shrunk = apply_policy(coeffs, ThresholdPolicy(config.beta,
                                                      report["thresholds"]))
        err = shrunk.values - clean
        assert gap[N] == report["sure"] / (err @ err) - 1.0
