"""Cost of one Chebyshev step, and of the transforms built on it.

Usage, from the root of a source checkout: ``python3 tools/step_bench.py``.
It takes no arguments and writes ``BENCH_steps.json`` beside ``src/``.

For each graph it records, on one BLAS thread:

- ``zero_copy_step_ms``: one ``L.matvec(x, out=..., prev=..., step=True)``,
  the step of every forward transform;
- ``assembled_step_ms``: the same step inside ``L.assembled()``, the step of
  the weights and the synthesis, where the unnormalized variant reads its
  weights scaled for the step and no longer scales x;
- ``diagonal_entries``: the nonzero entries of the step's shifted diagonal,
  which the COO kernel adds; none for the normalized variants at the cap 2;
- ``build_ms``: one opening of ``L.assembled()``, which copies the graph's
  weights scaled for the step for the unnormalized variant and makes
  nothing for the others;
- ``forward_ms`` and ``inverse_ms``: one bare ``sgwt_forward_fast`` and
  ``sgwt_inverse_fast`` at K = 100, both on the zero-copy step;
- ``graph_bytes``: the bytes of the graph's offsets, indices and weights;
- ``graph_build_ms``: one build of the graph by its generator;
- ``graph_build_peak_vectors``: the tracemalloc peak of one build, over
  the 8 n bytes of a signal vector.

Each time is the median of 7 samples. A step sample times STEPS steps
and divides; the other samples time one call. The operator's spectral
bound is estimated, and the partition built, before any timing.
"""

import json
import os
import platform
import sys
import time
import tracemalloc
from pathlib import Path

# one BLAS thread, as the benchmark runs; set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gsdenoise as gd  # noqa: E402

OUTPUT = ROOT / "BENCH_steps.json"
SAMPLES = 7
STEPS = 100
K = 100
# (name, graph, variant, lambda_ub); a bound of None is estimated. The grid
# at 8.08, 1% above its Gershgorin cap, has no zero on its shifted diagonal,
# so its step adds every node's entry, where the grids at the cap add only
# their boundary nodes'.
GRAPHS = (
    ("grid 300x300", lambda: gd.grid_graph(300, 300), "unnormalized", None),
    ("grid 500x500", lambda: gd.grid_graph(500, 500), "unnormalized", None),
    ("grid 500x500, lambda_ub 8.08", lambda: gd.grid_graph(500, 500),
     "unnormalized", 8.08),
    ("random_connected_graph(10^5, seed=0)",
     lambda: gd.random_connected_graph(10 ** 5, seed=0), "normalized", None),
    ("grid 1000x1000", lambda: gd.grid_graph(1000, 1000), "unnormalized",
     None),
)


def median_ms(fn, repeat=1):
    """Median over SAMPLES of the wall time of repeat calls of fn, in ms
    per call."""
    fn()  # warm
    times = []
    for _ in range(SAMPLES):
        start = time.perf_counter()
        for _ in range(repeat):
            fn()
        times.append((time.perf_counter() - start) / repeat)
    return 1e3 * float(np.median(times))


def steps(L, x, prev, out):
    """STEPS Chebyshev steps of the analysis recurrence's shape."""
    def run():
        for _ in range(STEPS):
            L.matvec(x, out=out, prev=prev, step=True)
    return run


def open_assembled(L):
    """Open L.assembled() and close it again."""
    with L.assembled():
        pass


def build_peak(make):
    """The tracemalloc peak of one make(), in bytes, and what it made."""
    tracemalloc.start()
    try:
        made = make()
        return tracemalloc.get_traced_memory()[1], made
    finally:
        tracemalloc.stop()


def measure(name, make, variant, lambda_ub):
    graph_build = median_ms(make)
    peak, g = build_peak(make)
    L = gd.laplacian(g, variant, lambda_ub)
    pou = gd.PartitionOfUnity.for_operator(L)
    rng = np.random.default_rng(0)
    x, prev = rng.standard_normal((2, g.n))
    out = np.empty(g.n)
    zero_copy = median_ms(steps(L, x, prev, out)) / STEPS
    with L.assembled():
        assembled = median_ms(steps(L, x, prev, out)) / STEPS
    build = median_ms(lambda: open_assembled(L))
    coeffs = gd.sgwt_forward_fast(L, x, pou, K=K)
    forward = median_ms(lambda: gd.sgwt_forward_fast(L, x, pou, K=K))
    inverse = median_ms(lambda: gd.sgwt_inverse_fast(L, coeffs, pou, K=K))
    result = {
        "graph": name, "variant": variant, "n": g.n,
        "stored_entries": int(g.indices.size),
        "index_dtype": str(g.indices.dtype), "lambda_ub": L.lambda_ub,
        "J": pou.J, "diagonal_entries": int(L._step_terms.data.size),
        "graph_bytes": int(g.offsets.nbytes + g.indices.nbytes
                           + g.weights.nbytes),
        "graph_build_ms": graph_build,
        "graph_build_peak_vectors": peak / (8 * g.n),
        "zero_copy_step_ms": zero_copy, "assembled_step_ms": assembled,
        "build_ms": build, "forward_ms": forward, "inverse_ms": inverse,
    }
    print(f"{name}: zero-copy {zero_copy:.3f} ms, assembled "
          f"{assembled:.3f} ms per step", file=sys.stderr)
    return result


def main():
    start = time.perf_counter()
    report = {
        "command": "python3 tools/step_bench.py",
        "environment": {"nproc": os.cpu_count(),
                        "machine": platform.machine(),
                        "python": platform.python_version(),
                        "numpy": np.__version__, "blas_threads": 1},
        "samples": SAMPLES, "steps_per_sample": STEPS, "K": K,
        "graphs": [measure(*graph) for graph in GRAPHS],
    }
    report["total_s"] = time.perf_counter() - start
    OUTPUT.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {OUTPUT.name} in {report['total_s']:.1f} s",
          file=sys.stderr)


if __name__ == "__main__":
    main()
