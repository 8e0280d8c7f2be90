"""Output quality of the SURE weights against their probe count N.

Usage, from the root of a source checkout: ``python3 tools/probe_sweep.py``.
It takes no arguments and writes ``BENCH_probes.json`` beside ``src/``.

The inputs follow the benchmark's recipe (perfbench/workloads.py, restated
here so that nothing under perfbench/ is imported): each noise level of
seed s denoises its own clean signal, drawn with seed 1000 s + level, and
its own noise, drawn with seed 1000 s + 500 + level, from the analytic
Gaussian mechanism at delta = 1e-6. For each graph the weights are
estimated once per N with probe seed 0; every input is then denoised with
each estimate by the chain ``denoise_pipeline`` runs on reused weights.

Probes are counter-based and summed in order, so the estimate at N is the
mean of the first N probe estimates and every N sees the same probes. For
each input and N the file records the output-SNR gain and the gap
SURE / ||h(F) - W f||^2 - 1, the quantity of the benchmark's SURE-against-
loss check, whose tolerance is 6%. Per configuration it summarises, for
each N against the reference N = 10: the mean over seeds of the per-seed
mean gain difference, its standard deviation and its worst seed; the mean
and the largest-magnitude gap; and the inputs beyond 6%, both all of them
and those within 6% at the reference.
"""

import dataclasses
import json
import os
import platform
import sys
import time
from pathlib import Path

# one BLAS thread, as the benchmark runs, so that the figures do not depend
# on the machine's core count; set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gsdenoise as gd  # noqa: E402

OUTPUT = ROOT / "BENCH_probes.json"
PROBE_COUNTS = (1, 2, 5, 10)
REFERENCE_N = 10
SEEDS = range(1, 21)
DELTA = 1e-6
SOURCE_DENSITY = 0.01
DIFFUSION = 4
GAP_TOL = 0.06
GRAPHS = {
    "grid 300x300": lambda: gd.grid_graph(300, 300),
    "grid 500x500": lambda: gd.grid_graph(500, 500),
    "random_connected_graph(10^5, seed=0)":
        lambda: gd.random_connected_graph(10 ** 5, seed=0),
}
# (name, graph, variant, the benchmark workload's epsilons, the levels swept,
# whether the pinned input is swept too); the grids' level 0 draws the
# pinned input in every benchmark run
CONFIGURATIONS = (
    ("grid-oneshot", "grid 300x300", "unnormalized", (0.5, 1.0, 2.0), (1, 2),
     True),
    ("grid-stream", "grid 500x500", "unnormalized", (0.5, 1.0, 2.0), (1, 2),
     True),
    ("random-cli", "random_connected_graph(10^5, seed=0)", "normalized",
     (0.25, 0.5, 1.0), (0, 1, 2), False),
)
# (signal seed, noise seed, epsilon) of the input on which the grids'
# SURE-against-loss fault was first seen
PINNED = (15, 15001, 0.5)


def draw_input(g, signal_seed, noise_seed, epsilon):
    f = gd.synth_signal(g, gd.SignalSpec(SOURCE_DENSITY, DIFFUSION,
                                         seed=signal_seed))
    sigma = gd.calibrate_sigma(gd.PrivacyParams(epsilon, DELTA))
    noisy, sigma = gd.sanitize(f, sigma, seed=noise_seed)
    return f, noisy, sigma


def estimate_weights(L, config, graph_hash):
    """The partition of unity, and the estimate for each N with its wall
    time in s, each made as the pipeline makes it."""
    weights, seconds = {}, {}
    for N in PROBE_COUNTS:
        start = time.perf_counter()
        pou, weights[N] = gd.frame_and_weights(
            L, dataclasses.replace(config, N=N), graph_hash)
        seconds[N] = time.perf_counter() - start
    return pou, weights, seconds


def denoise_each(L, pou, config, weights, f, noisy, sigma):
    """Output-SNR gain in dB and SURE-against-loss gap for each N."""
    coeffs = gd.sgwt_forward_fast(L, noisy, pou, K=config.K,
                                  jackson=config.jackson)
    clean = gd.sgwt_forward_fast(L, f, pou, K=config.K,
                                 jackson=config.jackson).values
    snr_in = gd.snr(f, noisy)
    gain, gap = {}, {}
    with L.assembled():
        for N, est in weights.items():
            policy, sure = gd.select_thresholds_sure(coeffs, est.diag, sigma,
                                                     beta=config.beta)
            shrunk = gd.apply_policy(coeffs, policy)
            err = shrunk.values - clean
            gap[N] = float(sure / (err @ err) - 1.0)
            fhat = gd.sgwt_inverse_fast(L, shrunk, pou, K=config.K,
                                        jackson=config.jackson)
            gain[N] = float(gd.snr(f, fhat) - snr_in)
    return gain, gap


def summarise(inputs):
    """Per-N statistics against the reference N, over one configuration."""
    summary = {}
    for N in PROBE_COUNTS:
        per_seed = []
        for seed in SEEDS:
            per_seed.append(np.mean([
                r["gain_db"][N] - r["gain_db"][REFERENCE_N]
                for r in inputs if r["seed"] == seed]))
        gaps = np.array([r["gap"][N] for r in inputs])
        ref = np.array([r["gap"][REFERENCE_N] for r in inputs])
        beyond = np.abs(gaps) > GAP_TOL
        summary[N] = {
            "dsnr_per_seed_db": [float(d) for d in per_seed],
            "dsnr_mean_db": float(np.mean(per_seed)),
            "dsnr_sd_db": float(np.std(per_seed, ddof=1)),
            "dsnr_worst_db": float(np.min(per_seed)),
            "gap_mean": float(np.mean(gaps)),
            "gap_worst": float(gaps[np.argmax(np.abs(gaps))]),
            "beyond_gap_tol": int(beyond.sum()),
            "beyond_gap_tol_only_here": int(
                (beyond & (np.abs(ref) <= GAP_TOL)).sum()),
        }
    return summary


def sweep_configuration(name, graph, variant, epsilons, levels, pinned):
    start = time.perf_counter()
    g = GRAPHS[graph]()
    config = gd.PipelineConfig(variant=variant)
    L = gd.laplacian(g, variant)
    pou, weights, seconds = estimate_weights(L, config, g.content_hash())
    inputs = []
    for seed in SEEDS:
        for level in levels:
            f, noisy, sigma = draw_input(g, 1000 * seed + level,
                                         1000 * seed + 500 + level,
                                         epsilons[level])
            gain, gap = denoise_each(L, pou, config, weights, f, noisy, sigma)
            inputs.append({"seed": seed, "epsilon": epsilons[level],
                           "gain_db": gain, "gap": gap})
    result = {"name": name, "graph": graph, "n": g.n, "variant": variant,
              "J": pou.J, "lambda_ub": L.lambda_ub,
              "epsilons": [epsilons[i] for i in levels],
              "seeds": [SEEDS.start, SEEDS.stop - 1],
              "weights_s": seconds, "summary": summarise(inputs),
              "inputs": inputs}
    if pinned:
        signal_seed, noise_seed, epsilon = PINNED
        f, noisy, sigma = draw_input(g, signal_seed, noise_seed, epsilon)
        gain, gap = denoise_each(L, pou, config, weights, f, noisy, sigma)
        result["pinned"] = {"signal_seed": signal_seed,
                            "noise_seed": noise_seed, "epsilon": epsilon,
                            "gain_db": gain, "gap": gap}
    result["sweep_s"] = time.perf_counter() - start
    print(f"{name}: {result['sweep_s']:.1f} s", file=sys.stderr)
    return result


def main():
    start = time.perf_counter()
    configurations = [sweep_configuration(*c) for c in CONFIGURATIONS]
    report = {
        "command": "python3 tools/probe_sweep.py",
        "environment": {"nproc": os.cpu_count(),
                        "machine": platform.machine(),
                        "python": platform.python_version(),
                        "numpy": np.__version__, "blas_threads": 1},
        "probe_counts": list(PROBE_COUNTS),
        "reference_N": REFERENCE_N,
        "probe_seed": gd.PipelineConfig.seed,
        "gap_tol": GAP_TOL,
        "configurations": configurations,
        "total_s": time.perf_counter() - start,
    }
    OUTPUT.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {OUTPUT.name} in {report['total_s']:.1f} s",
          file=sys.stderr)


if __name__ == "__main__":
    main()
