"""One traced cold request on the 1000x1000 grid, the size of the
acceptance smoke test: a reference figure, not a benchmark workload.

    python3 perfbench/million.py

It sets up as grid-oneshot does with seed 0, sends the epsilon=1 request
once under the tracer, runs the same checks and prints the request's wall
time, the process's peak RSS and the per-layer metrics the request
exercises, as JSON. It takes several minutes.
"""

import json
import sys

import run

SIDE = 1000
SEED = 0


def main():
    error = run.import_sources()
    if error:
        print(f"million.py: {error}", file=sys.stderr)
        return 2
    from workloads import GridWorkload

    tracer = run.sp.Tracer()
    tracer.install(traced=True)
    wl = GridWorkload(SIDE, False, SEED, None, tracer)
    wl.setup()
    with tracer.span("request") as span:
        idx = tracer.current()
        fhat = wl.request(1)
    snr_in, snr_out = wl.check(1, fhat, run.stage_spans(tracer, idx))
    metrics = run.sp.layer_metrics(tracer.spans, wl.matvec_bytes)
    print(json.dumps({
        "n": wl.g.n, "request_s": span.duration,
        "peak_rss_mb": wl.peak_rss_mb(), "snr_in_db": snr_in,
        "snr_out_db": snr_out,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
