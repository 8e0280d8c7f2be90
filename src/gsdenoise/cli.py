"""Command-line front end.

Subcommands cover the full workflow: inspect a graph, synthesize a test
signal, sanitize it with a calibrated Gaussian mechanism, precompute the
SURE weight cache, denoise, score, and benchmark. Exit codes: 0 success,
2 usage error (argparse), 1 anything that fails during computation; errors
go to stderr.
"""

import argparse
import csv
import dataclasses
import sys

import numpy as np

from .graph import file_sha256, graph_edges, laplacian, read_edgelist
from .pipeline import (PipelineConfig, denoise_pipeline, frame_and_weights,
                       timed)
from .privacy import MECHANISMS, PrivacyParams, calibrate_sigma, sanitize
from .signals import (SignalSpec, mse, read_signal, require_count, snr,
                      synth_signal, write_signal)
from .sure import load_weights, save_weights
from . import __version__

BENCH_COLUMNS = ("run", "epsilon", "sigma", "snr_in", "snr_out", "sure",
                 "wall_ms_setup", "wall_ms_forward", "wall_ms_weights",
                 "wall_ms_select", "wall_ms_apply", "wall_ms_inverse")


# the PipelineConfig fields that are flags of the subcommands that run the
# pipeline; sigma is a flag of its own where a subcommand takes one
_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(PipelineConfig)
                  if f.name != "sigma"}


def _add_config_flags(p, names=tuple(_CONFIG_FIELDS)):
    """One flag per named PipelineConfig field, spelled as the field and
    typed, defaulted and documented by it."""
    for name in names:
        f = _CONFIG_FIELDS[name]
        kw = {"action": argparse.BooleanOptionalAction} if f.type is bool \
            else {"type": f.type, "choices": f.metadata["choices"]}
        p.add_argument(f"--{name}", default=f.default,
                       help=f.metadata["help"], **kw)


def _config_from(args, sigma=None):
    return PipelineConfig(sigma=sigma, **{name: getattr(args, name)
                                          for name in _CONFIG_FIELDS})


def _build_parser():
    cfg = argparse.ArgumentParser(add_help=False)  # every config flag
    _add_config_flags(cfg.add_argument_group("pipeline configuration"))
    # flags two subcommands share: mechanism, test signal, label graph
    privacy = argparse.ArgumentParser(add_help=False)
    privacy.add_argument("--delta", type=float, default=1e-6,
                         help="privacy slack")
    privacy.add_argument("--sensitivity", type=float, default=1.0,
                         help="l2-sensitivity of the signal")
    privacy.add_argument("--mechanism", default="analytic", choices=MECHANISMS,
                         help="Gaussian mechanism that calibrates sigma "
                              "from the privacy budget")
    spec = argparse.ArgumentParser(add_help=False)
    spec.add_argument("--p", type=float, default=0.01,
                      help="Bernoulli source density")
    spec.add_argument("--k", type=int, default=4, help="diffusion power")
    labels = argparse.ArgumentParser(add_help=False)
    labels.add_argument("--graph", help="edge-list file, only needed for "
                                        "label,value signal files")
    top = argparse.ArgumentParser(
        prog="gsdenoise",
        description="Graph-signal denoising by wavelet thresholding with "
                    "Monte-Carlo SURE threshold selection.")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph-info",
                       help="print node/edge counts and the spectral bound")
    p.add_argument("graph", help="edge-list file")
    _add_config_flags(p, ["variant"])

    p = sub.add_parser("synth", parents=[spec],
                       help="synthesize a Bernoulli-diffusion signal")
    p.add_argument("graph", help="edge-list file")
    _add_config_flags(p, ["seed"])
    p.add_argument("-o", "--output", required=True, help="signal file to write")

    p = sub.add_parser("sanitize", parents=[labels, privacy],
                       help="add calibrated Gaussian noise to a signal")
    p.add_argument("signal", help="signal file to sanitize")
    _add_config_flags(p, ["seed"])
    p.add_argument("-o", "--output", required=True,
                   help="signal file to write")
    p.add_argument("--sigma", type=float,
                   help="noise scale; overrides mechanism calibration")
    p.add_argument("--epsilon", type=float, help="privacy budget")

    p = sub.add_parser("weights", parents=[cfg],
                       help="precompute the SURE weight cache for a graph")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("-o", "--output", required=True, help="cache file to write")

    p = sub.add_parser("denoise", parents=[cfg],
                       help="denoise a signal file")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("signal", help="signal file to denoise")
    p.add_argument("-o", "--output", required=True,
                   help="signal file to write the estimate to")
    p.add_argument("--sigma", type=float, required=True,
                   help="noise scale published with the signal")
    p.add_argument("--weights", help="weight cache file to reuse")

    p = sub.add_parser("eval", parents=[labels],
                       help="print SNR and MSE of an estimate vs a reference")
    p.add_argument("reference", help="clean signal file")
    p.add_argument("estimate", help="signal file to score")

    p = sub.add_parser("bench", parents=[cfg, privacy, spec],
                       help="sweep noise levels x repetitions, write a CSV")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("-o", "--output", required=True, help="CSV file to write")
    p.add_argument("--reps", type=int, default=5,
                   help="noise draws per level, at least 1")
    p.add_argument("--epsilon", type=float, action="append", default=None,
                   help="privacy budget; repeat for a sweep")
    p.add_argument("--sigma", type=float, action="append", default=None,
                   help="noise scale; repeat for a sweep")
    p.add_argument("--signal-seed", type=int, default=0,
                   help="seed of the clean test signal")
    return top


def _cmd_graph_info(args):
    g = read_edgelist(args.graph)
    L = laplacian(g, args.variant)
    print(f"n={g.n} m={g.m} lambda_ub={L.lambda_ub!r}")
    return 0


def _cmd_synth(args):
    g = read_edgelist(args.graph)
    spec = SignalSpec(args.p, args.k, seed=args.seed)
    f = synth_signal(g, spec)
    write_signal(args.output, f,
                 header={"p": args.p, "k": args.k, "seed": args.seed})
    return 0


def _calibrated_sigma(args, epsilon):
    """The noise scale of the privacy flags' mechanism at budget epsilon."""
    return calibrate_sigma(PrivacyParams(epsilon, args.delta,
                                         args.sensitivity, args.mechanism))


def _cmd_sanitize(args):
    graph = read_edgelist(args.graph) if args.graph else None
    f, _ = read_signal(args.signal, graph=graph)
    header = {"seed": args.seed}
    sigma = args.sigma
    if sigma is None:
        if args.epsilon is None:
            raise ValueError("sanitize needs either --sigma or --epsilon")
        sigma = _calibrated_sigma(args, args.epsilon)
        header.update(mechanism=args.mechanism, epsilon=args.epsilon,
                      delta=args.delta, sensitivity=args.sensitivity)
    noisy, sigma = sanitize(f, sigma, seed=args.seed)
    header["sigma"] = repr(sigma)
    write_signal(args.output, noisy, header=header)
    print(f"sigma={sigma!r}")
    return 0


def _cmd_weights(args):
    config = _config_from(args)
    config.validate()
    digest = file_sha256(args.graph)
    g = read_edgelist(args.graph)
    _, est = frame_and_weights(laplacian(g, config.variant), config,
                               g.content_hash())
    save_weights(args.output, est, graph=(digest, graph_edges(g)))
    print(f"n={est.n} J={est.J} N={est.N} file={args.output}")
    return 0


def _cmd_denoise(args):
    io_ms = {}
    with timed(io_ms, "load_weights"):
        cached, graph = (load_weights(args.weights, return_graph=True)
                         if args.weights else (None, None))
    with timed(io_ms, "read_graph"):
        # the cache's own edges where it was written from these very bytes
        edges = (graph[1] if graph and graph[0] == file_sha256(args.graph)
                 else None)
        g = read_edgelist(args.graph, edges)
    with timed(io_ms, "read_signal"):
        f, _ = read_signal(args.signal, graph=g)
    config = _config_from(args, sigma=args.sigma)
    fhat, report = denoise_pipeline(g, f, config, weights=cached)
    with timed(io_ms, "write"):
        write_signal(args.output, fhat,
                     header={"sigma": repr(args.sigma), "seed": args.seed,
                             "sure": repr(report["sure"])})
    for w in report["warnings"]:
        print(f"warning: {w}", file=sys.stderr)
    print(f"cache={report['cache']}")
    print(f"graph_source={'edgelist' if edges is None else 'cache'}")
    print(f"bound_source={report['bound']['source']}")
    print(f"sure={report['sure']!r}")
    print("thresholds=" + ",".join(repr(t) for t in report["thresholds"]))
    for stage, ms in {**io_ms, **report["timings_ms"]}.items():
        print(f"wall_ms_{stage}={ms:.3f}")
    for stage, count in report["matvecs"].items():
        print(f"matvecs_{stage}={count}")
    print(f"peak_rss_mb={report['peak_rss_mb']}")
    return 0


def _cmd_eval(args):
    graph = read_edgelist(args.graph) if args.graph else None
    ref, _ = read_signal(args.reference, graph=graph)
    est, _ = read_signal(args.estimate, graph=graph)
    print(f"snr={snr(ref, est):g} mse={mse(ref, est):g}")
    return 0


def _cmd_bench(args):
    if (args.epsilon is None) == (args.sigma is None):
        raise ValueError("bench sweeps exactly one of --epsilon or --sigma")
    require_count("reps", args.reps)
    config = _config_from(args)
    config.validate()
    g = read_edgelist(args.graph)
    f = synth_signal(g, SignalSpec(args.p, args.k, seed=args.signal_seed))
    if args.epsilon is not None:
        levels = [(eps, _calibrated_sigma(args, eps)) for eps in args.epsilon]
    else:
        levels = [("", sig) for sig in args.sigma]
    L = laplacian(g, config.variant)
    # deterministic in (graph, config), so one estimate serves every noise
    # level and repetition
    _, weights = frame_and_weights(L, config, g.content_hash())
    with open(args.output, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(BENCH_COLUMNS)
        for eps, sigma in levels:
            for run in range(args.reps):
                # (seed, k) keys probe k of the weight estimate; the
                # trailing 1 keeps run r's noise apart from probe r
                noisy, _ = sanitize(f, sigma, seed=np.random.SeedSequence(
                    (args.seed, run, 1)))
                fhat, report = denoise_pipeline(
                    g, noisy, dataclasses.replace(config, sigma=sigma),
                    weights=weights, operator=L)
                row = [run, eps, repr(sigma), f"{snr(f, noisy):.6f}",
                       f"{snr(f, fhat):.6f}", repr(report["sure"])]
                # the remaining columns are wall_ms_<stage>
                t = report["timings_ms"]
                out.writerow(row + [f"{t[c.removeprefix('wall_ms_')]:.3f}"
                                    for c in BENCH_COLUMNS[len(row):]])
    return 0


_COMMANDS = {
    "graph-info": _cmd_graph_info,
    "synth": _cmd_synth,
    "sanitize": _cmd_sanitize,
    "weights": _cmd_weights,
    "denoise": _cmd_denoise,
    "eval": _cmd_eval,
    "bench": _cmd_bench,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:
        print(f"gsdenoise: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
