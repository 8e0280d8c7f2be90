"""Benchmark of gsdenoise: one closed-loop client, one request at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; gsdenoise is imported from its
``src`` directory. Each run sets its workload up ``setup_reps`` times, then
sends whole rounds of requests, one per noise level, until S seconds have
passed. Every request is checked outside the timed region (see checks.py).
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``, the end-to-end metrics with
``--trace 0`` and the per-layer metrics of a traced run with ``--trace 1``.
The line before it records the software and thread settings of the run.
"""

import os

# A single client in a single process: numerical libraries get one thread,
# which stays within the machine's cores and keeps timings steady. This
# must precede the first numpy import, here and in child processes.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import spans as sp  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
UNTRACED = "untraced-request"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("grid-oneshot", "grid-stream", "random-cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_threads(np):
    """Threads of numpy's bundled OpenBLAS, asked of the library itself;
    None when numpy was built against another BLAS."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir,
                        "numpy.libs", "libscipy_openblas*")
    for path in glob.glob(libs):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_",
                     None)
        if fn is not None:
            return int(fn())
    return None


def environment(args):
    import numpy as np
    import scipy
    import gsdenoise._kernels
    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "numba_imports": numba_imports,
        "numba_enabled": gsdenoise._kernels.numba_enabled(),
        "blas_threads": blas_threads(np), "blas_threads_pinned": BLAS_THREADS,
    }


def stage_spans(tracer, request):
    """The pipeline span under a request and its direct children, by name."""
    spans = tracer.spans
    stages = {}
    for i in range(request + 1, len(spans)):
        s = spans[i]
        if s.name == "pipeline.denoise_pipeline" and s.parent == request:
            stages[s.name] = s
            pipe = i
        elif stages and s.parent == pipe:
            stages.setdefault(s.name, s)
    return stages


class Run:
    def __init__(self, workload, tracer, traced):
        self.wl = workload
        self.tracer = tracer
        self.traced = traced
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.gains = []
        self.requests = []  # span indices of the requests that completed

    def request(self, level, name):
        """Send one request in a span of the given name, then check it."""
        self.attempted += 1
        tracer = self.tracer
        try:
            with tracer.span(name):
                idx = tracer.current()
                answer = self.wl.request(level)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return
        print(f"request {self.attempted} (level {level}): "
              f"{tracer.spans[idx].duration:.3f} s", file=sys.stderr)
        stages = stage_spans(tracer, idx)
        try:
            snr_in, snr_out = self.wl.check(level, answer, stages)
            self.gains.append(snr_out - snr_in)
        except checks.CheckFailed as exc:
            self.failed += 1
            # only an unexpected failure makes the run incorrect
            if not (isinstance(exc, checks.SureOffLoss)
                    and level in self.wl.known_faults):
                self.wrong += 1
            print(f"check failed on request {self.attempted} "
                  f"(level {level}): {exc}", file=sys.stderr)
        for s in stages.values():
            s.result = None
        self.requests.append(idx)

    def walls(self, name):
        return [self.tracer.spans[i].duration for i in self.requests
                if self.tracer.spans[i].name == name]

    def execute(self, seconds):
        tracer = self.tracer
        setups = []
        for _ in range(self.wl.setup_reps):
            with tracer.span("setup") as s:
                self.wl.setup()
            setups.append(s.duration)
            print(f"setup: {s.duration:.3f} s", file=sys.stderr)
        round_levels = list(range(len(self.wl.epsilons))) * self.wl.repeats
        if self.traced:
            # one whole round untraced: the traced rounds' median request
            # time minus this round's, over the same levels, is the
            # tracing overhead
            tracer.fine = False
            for level in round_levels:
                self.request(level, UNTRACED)
            tracer.fine = True
        start = time.perf_counter()
        while True:
            for level in round_levels:
                self.request(level, "request")
            if time.perf_counter() - start >= seconds:
                break
        if self.traced:
            return self.layer_metrics(
                statistics.median(self.walls("request"))
                - statistics.median(self.walls(UNTRACED)))
        return {
            "setup_s": (statistics.median(setups), "s"),
            "denoise_s": (statistics.median(self.walls("request")), "s"),
            "peak_rss_mb": (self.wl.peak_rss_mb(), "MB"),
            # 0 only when no request passed its checks
            "snr_gain_db": (statistics.fmean(self.gains or [0.0]), "dB"),
        }

    def layer_metrics(self, overhead):
        cache_mb = self.wl.probe_files()
        startup = statistics.median(self.wl.startup() for _ in range(3))
        spans = self.tracer.spans
        kids = sp.children(spans)
        c = self.wl.config
        # every transform and weight estimate, in this process or a child,
        # used exactly K, K+1 and N*K matvecs; every request's spans nest
        for i, s in enumerate(spans):
            parent = spans[s.parent].name if s.parent is not None else None
            try:
                if s.name == "chebyshev.sgwt_forward_fast" and \
                        parent == sp.PIPELINE:
                    checks.require(s.matvecs == c.K,
                                   f"forward used {s.matvecs} matvecs")
                elif s.name == "chebyshev.sgwt_inverse_fast":
                    checks.require(s.matvecs == c.K + 1,
                                   f"inverse used {s.matvecs} matvecs")
                elif s.name == "sure.estimate_diagonal_weights":
                    checks.require(s.matvecs == c.N * c.K,
                                   f"weights used {s.matvecs} matvecs")
                elif s.name in ("request", UNTRACED):
                    sp.check_nesting(spans, kids, i)
            except (checks.CheckFailed, ValueError) as exc:
                self.wrong += 1
                print(f"trace check failed: {exc}", file=sys.stderr)
        out = sp.layer_metrics(
            spans, self.wl.matvec_bytes,
            skip=[i for i, s in enumerate(spans) if s.name == UNTRACED])
        out["sure.cache_mb"] = (cache_mb, "MB")
        out["cli.startup_s"] = (startup, "s")
        out["trace.overhead_s"] = (overhead, "s")
        with open(ROOT / "BENCHMARK.json") as fh:
            declared = {m["name"] for m in json.load(fh)["per_layer"]}
        if declared != set(out):
            raise RuntimeError(f"traced run measured {sorted(out)}, "
                               f"BENCHMARK.json declares {sorted(declared)}")
        return out


def import_sources():
    """Import gsdenoise from this checkout's sources, for this process and
    its children; returns an error message when they are not there."""
    if not (SRC / "gsdenoise" / "__init__.py").is_file():
        return f"no gsdenoise sources under {SRC}"
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    import gsdenoise
    if Path(gsdenoise.__file__).resolve().parent != SRC / "gsdenoise":
        return f"imported gsdenoise from {gsdenoise.__file__}"
    return None


def main(argv=None):
    args = parse_args(argv)
    error = import_sources()
    if error:
        print(f"run.py: {error}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    tracer = sp.Tracer()
    tracer.install(traced=bool(args.trace))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        wl = WORKLOADS[args.workload](args.seed, work, tracer)
        run = Run(wl, tracer, bool(args.trace))
        metrics = run.execute(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = environment(args)
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
