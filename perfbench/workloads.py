"""The benchmark's workloads: what each sets up, sends and checks.

A workload builds its inputs in ``setup`` (timed as setup_s), sends one
denoising request per noise level in ``request`` (timed as denoise_s) and
checks each answer in ``check``, outside the timed region. Library calls
go through the ``gsdenoise`` package attributes, so the tracer's wrappers
see them.
"""

import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import gsdenoise as gd
import checks

DELTA = 1e-6
SOURCE_DENSITY = 0.01
DIFFUSION = 4
RANDOM_NODES = 10 ** 5
# The random graph is the same for every seed, so that the power-iteration
# bound, whose iteration count depends on the graph, costs the same in
# every run; the seed draws the signals and the noise.
RANDOM_GRAPH_SEED = 0
PERFBENCH = Path(__file__).resolve().parent


def signal_seed(seed, level):
    """Each noise level denoises its own clean signal."""
    return 1000 * seed + level


def noise_seed(seed, level):
    return 1000 * seed + 500 + level


def csr_bytes(g):
    """Bytes a CSR matvec must move at least: offsets, indices and weights
    read once, x gathered once per stored entry, the result written."""
    return 8 * (g.n + 1) + 24 * g.indices.size + 8 * g.n


class Workload:
    setup_reps = 1
    # each round sends every noise level this many times
    repeats = 1
    # level -> (signal seed, noise seed) of a level whose inputs do not
    # follow --seed and whose request fails the SURE-against-loss check in
    # every run, through a fault of the program
    known_faults = {}

    def __init__(self, seed, work, tracer):
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.config = gd.PipelineConfig()

    def cli(self, *args):
        """Run one gsdenoise command line in a child process inside a
        ``cli.process`` span; returns (stdout, peak RSS in MB).

        With fine tracing on, the child runs under the tracer and its
        spans are merged under this span.
        """
        spans = self.work / "child_spans.json"
        if self.tracer.fine:
            cmd = [sys.executable, str(PERFBENCH / "cli_child.py"),
                   str(spans)]
        else:
            cmd = [sys.executable, "-m", "gsdenoise"]
        out_path = self.work / "child_stdout.txt"
        err_path = self.work / "child_stderr.txt"
        with open(out_path, "w") as out, open(err_path, "w") as err, \
                self.tracer.span("cli.process"):
            parent = self.tracer.current()
            proc = subprocess.Popen(cmd + [str(a) for a in args],
                                    stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise RuntimeError(f"gsdenoise {args[0]} exited with "
                               f"{proc.returncode}: {err_path.read_text()}")
        if self.tracer.fine:
            self.tracer.merge(spans, parent)
        return out_path.read_text(), usage.ru_maxrss / 1024.0

    def startup(self):
        """Wall time of ``gsdenoise --version``: interpreter and imports."""
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "gsdenoise", "--version"],
                       check=True, stdout=subprocess.DEVNULL)
        return time.perf_counter() - start


class GridWorkload(Workload):
    """Square grid, unnormalized variant, the README's API call.

    With reuse, setup also builds the operator and the weight estimate,
    and every request passes both in.
    """

    epsilons = (0.5, 1.0, 2.0)
    # At epsilon=0.5 the reported SURE falls below the true loss by more
    # than the check allows on some signals and not on others (see the
    # README). So that it fails in every run or in none, that level always
    # draws the inputs on which the fault was first seen: SURE is 8.3%
    # (300x300) and 6.0% (500x500) below the loss there.
    known_faults = {0: (15, 15001)}

    def __init__(self, side, reuse, seed, work, tracer):
        super().__init__(seed, work, tracer)
        self.side = side
        self.reuse = reuse
        # one grid-stream setup takes about 16 s; a second would bring a
        # full acceptance check (70 runs within 3420 s) near its limit
        self.setup_reps = 1 if reuse else 5
        # the weights of the last traced request, for probe_files
        self.last_weights = None

    def setup(self):
        g = gd.grid_graph(self.side, self.side)
        levels = []
        for i, eps in enumerate(self.epsilons):
            fseed, eseed = self.known_faults.get(
                i, (signal_seed(self.seed, i), noise_seed(self.seed, i)))
            f = gd.synth_signal(g, gd.SignalSpec(SOURCE_DENSITY, DIFFUSION,
                                                 seed=fseed))
            sigma = gd.calibrate_sigma(gd.PrivacyParams(eps, DELTA))
            noisy, sigma = gd.sanitize(f, sigma, seed=eseed)
            levels.append((eps, sigma, f, noisy))
        self.g, self.levels = g, levels
        self.L = self.weights = None
        if self.reuse:
            c = self.config
            self.L = gd.laplacian(g, c.variant)
            pou = gd.PartitionOfUnity.for_operator(self.L, kind=c.kind,
                                                   b=c.b, c=c.c)
            self.weights = gd.estimate_diagonal_weights(
                self.L, pou, K=c.K, jackson=c.jackson, N=c.N,
                dist=c.distribution, seed=c.seed,
                graph_hash=g.content_hash())

    @property
    def matvec_bytes(self):
        return csr_bytes(self.g)

    def request(self, i):
        _, sigma, _, noisy = self.levels[i]
        config = gd.PipelineConfig(sigma=sigma)
        if self.reuse:
            fhat, _ = gd.denoise_pipeline(self.g, noisy, config,
                                          weights=self.weights,
                                          operator=self.L)
        else:
            fhat, _ = gd.denoise_pipeline(self.g, noisy, config)
        return fhat

    def _clean_coeffs(self, i, lambda_ub):
        """W f of level i's clean signal on the request's spectral
        interval. Nothing is kept: the benchmark holds no array of its own
        while a request runs, so peak_rss_mb is the program's."""
        c = self.config
        with self.tracer.off():
            L = gd.laplacian(self.g, c.variant, lambda_ub=lambda_ub)
            pou = gd.PartitionOfUnity.for_operator(L, kind=c.kind, b=c.b,
                                                   c=c.c)
            return gd.sgwt_forward_fast(L, self.levels[i][2], pou, K=c.K,
                                        jackson=c.jackson).values

    def check(self, i, fhat, stages):
        eps, sigma, f, noisy = self.levels[i]
        c = self.config
        report = stages["pipeline.denoise_pipeline"].result
        fwd = stages["chebyshev.sgwt_forward_fast"]
        inv = stages["chebyshev.sgwt_inverse_fast"]
        if self.reuse:
            checks.require(report["cache"] == "hit",
                           f"weight cache {report['cache']}, expected hit")
            weights, weight_matvecs = self.weights, None
        else:
            weights = stages["sure.estimate_diagonal_weights"].result
            weight_matvecs = stages["sure.estimate_diagonal_weights"].matvecs
        if self.tracer.fine:
            self.last_weights = weights
        n = self.g.n
        coeffs = fwd.result.values
        checks.analytic_mechanism(sigma, eps, DELTA)
        checks.noise_level(f, noisy, sigma)
        checks.spectral_bound(report["lambda_ub"],
                              checks.grid_lambda_max(self.side, self.side))
        checks.matvec_counts(c.K, fwd.matvecs, inv.matvecs, N=c.N,
                             weights=weight_matvecs)
        checks.tight_frame(coeffs, noisy, weights.diag, n)
        checks.sure_value(report["sure"], coeffs, n, weights.diag, sigma,
                          c.beta, report["thresholds"])
        snr = checks.estimate(f, noisy, fhat)
        # last, so that a known fault fails it only after every other check
        checks.sure_vs_loss(report["sure"], coeffs,
                            self._clean_coeffs(i, report["lambda_ub"]), n,
                            c.beta, report["thresholds"])
        return snr

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def probe_files(self):
        """Exercise the file layers once on this workload's own graph,
        signal and weights, so the traced run has a figure for each."""
        graph = self.work / "graph.txt"
        clean = self.work / "clean.txt"
        noisy = self.work / "noisy.txt"
        cache = self.work / "weights.txt"
        gd.write_edgelist(self.g, graph)
        gd.read_edgelist(graph)
        gd.write_signal(clean, self.levels[0][2])
        gd.write_signal(noisy, self.levels[0][3])
        gd.read_signal(noisy)
        gd.save_weights(cache, self.last_weights)
        gd.load_weights(cache)
        self.cli("eval", clean, noisy)
        return cache.stat().st_size / 1e6


class CliWorkload(Workload):
    """Weighted random graph, normalized variant, one ``gsdenoise
    denoise --weights`` process per request."""

    epsilons = (0.25, 0.5, 1.0)
    # Requests here take about 4.5 s against 6.5 s on the grids, and their
    # wall time varies more from run to run: each level is sent twice per
    # round, and the 12 s setup once per run to pay for it.
    repeats = 2

    def __init__(self, seed, work, tracer):
        super().__init__(seed, work, tracer)
        self.config = gd.PipelineConfig(variant="normalized")
        self.graph = work / "graph.txt"
        self.cache = work / "weights.txt"
        self.clean = [work / f"clean{i}.txt"
                      for i in range(len(self.epsilons))]
        self.noisy = [work / f"noisy{i}.txt"
                      for i in range(len(self.epsilons))]
        self.child_rss = []
        self.ref = None
        self.expected = {}

    def setup(self):
        g = gd.random_connected_graph(RANDOM_NODES, seed=RANDOM_GRAPH_SEED)
        gd.write_edgelist(g, self.graph)
        self.sigmas = []
        for i, eps in enumerate(self.epsilons):
            self.cli("synth", self.graph, "-o", self.clean[i],
                     "--p", SOURCE_DENSITY, "--k", DIFFUSION,
                     "--seed", signal_seed(self.seed, i))
            self.cli("sanitize", self.clean[i], "-o", self.noisy[i],
                     "--epsilon", eps, "--delta", DELTA,
                     "--seed", noise_seed(self.seed, i))
            self.sigmas.append(float(read_header(self.noisy[i])["sigma"]))
        self.cli("weights", self.graph, "-o", self.cache,
                 "--variant", self.config.variant)
        self.n, self.nnz = g.n, g.indices.size
        self.matvec_bytes = csr_bytes(g)

    def request(self, i):
        out = self.work / f"out{i}.txt"
        stdout, rss = self.cli(
            "denoise", self.graph, self.noisy[i], "-o", out,
            "--variant", self.config.variant, "--weights", self.cache,
            "--sigma", repr(self.sigmas[i]))
        self.child_rss.append(rss)
        fields = dict(line.split("=", 1) for line in stdout.splitlines()
                      if "=" in line)
        return {"cache": fields["cache"], "sure": float(fields["sure"]),
                "thresholds": [float(t)
                               for t in fields["thresholds"].split(",")],
                "estimate": out}

    def _reference(self):
        """The graph, signals, operator and weights as read back from the
        files, W f of the clean signals, and lambda_max computed here."""
        if self.ref is None:
            c = self.config
            with self.tracer.off():
                g = gd.read_edgelist(self.graph)
                L = gd.laplacian(g, c.variant)
                pou = gd.PartitionOfUnity.for_operator(L, kind=c.kind, b=c.b,
                                                       c=c.c)
                clean = [gd.read_signal(p, graph=g)[0] for p in self.clean]
                self.ref = {
                    "g": g, "L": L, "pou": pou, "clean": clean,
                    "noisy": [gd.read_signal(p, graph=g)[0]
                              for p in self.noisy],
                    "weights": gd.load_weights(self.cache),
                    "clean_coeffs": [gd.sgwt_forward_fast(
                        L, f, pou, K=c.K, jackson=c.jackson).values
                        for f in clean],
                    "lambda_max": checks.edgelist_normalized_lambda_max(
                        self.graph),
                }
        return self.ref

    def _recompute(self, i, thresholds):
        """Forward coefficients of request i's input and the estimate its
        reported thresholds imply, with the matvecs each took."""
        key = (i, tuple(thresholds))
        if key not in self.expected:
            ref, c = self._reference(), self.config
            L, pou = ref["L"], ref["pou"]
            with self.tracer.off():
                before = L.matvec_count
                coeffs = gd.sgwt_forward_fast(L, ref["noisy"][i], pou, K=c.K,
                                              jackson=c.jackson)
                mid = L.matvec_count
                shrunk = gd.FrameCoefficients(
                    checks.shrink_all(coeffs.values, L.n, thresholds, c.beta),
                    L.n, pou.J)
                est = gd.sgwt_inverse_fast(L, shrunk, pou, K=c.K,
                                           jackson=c.jackson)
            self.expected[key] = (coeffs.values, est, mid - before,
                                  L.matvec_count - mid)
        return self.expected[key]

    def check(self, i, answer, stages):
        ref, c = self._reference(), self.config
        eps, sigma = self.epsilons[i], self.sigmas[i]
        clean, noisy = ref["clean"][i], ref["noisy"][i]
        weights = ref["weights"]
        n = ref["g"].n
        thresholds = answer["thresholds"]
        checks.require(answer["cache"] == "hit",
                       f"weight cache {answer['cache']}, expected hit")
        checks.analytic_mechanism(sigma, eps, DELTA)
        checks.noise_level(clean, noisy, sigma)
        checks.spectral_bound(ref["L"].lambda_ub, ref["lambda_max"],
                              normalized=True)
        coeffs, expected, fwd, inv = self._recompute(i, thresholds)
        checks.matvec_counts(c.K, fwd, inv)
        checks.tight_frame(coeffs, noisy, weights.diag, n)
        checks.sure_value(answer["sure"], coeffs, n, weights.diag, sigma,
                          c.beta, thresholds)
        checks.sure_vs_loss(answer["sure"], coeffs, ref["clean_coeffs"][i], n,
                            c.beta, thresholds)
        with self.tracer.off():
            est = gd.read_signal(answer["estimate"], graph=ref["g"])[0]
        checks.same_estimate(est, expected)
        return checks.estimate(clean, noisy, est)

    def peak_rss_mb(self):
        return max(self.child_rss)

    def probe_files(self):
        return self.cache.stat().st_size / 1e6


def read_header(path):
    """The ``# key = value`` lines at the top of a signal file."""
    header = {}
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            key, _, val = line[1:].partition("=")
            header[key.strip()] = val.strip()
    return header


WORKLOADS = {
    "grid-oneshot": lambda seed, work, tracer: GridWorkload(
        300, False, seed, work, tracer),
    "grid-stream": lambda seed, work, tracer: GridWorkload(
        500, True, seed, work, tracer),
    "random-cli": CliWorkload,
}
