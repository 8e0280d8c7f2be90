"""End-to-end denoiser: analysis, SURE thresholding, synthesis.

One call wires the whole chain together: build the Laplacian and frame,
estimate (or reuse) the Monte-Carlo SURE weights, push the noisy signal
through the fast forward transform, pick per-scale thresholds minimizing
SURE (the selection reports the SURE it attained, which is evaluated
nowhere else), shrink, and synthesize through the frame's canonical dual.
The noise scale sigma is a required input, published by whatever
mechanism produced the noise; nothing here tries to estimate it.

Weight reuse is guarded by a fingerprint of everything the estimate
depends on (graph content hash, Laplacian variant, frame parameters, K,
damping, N, probe distribution, seed); a mismatched cache is recomputed
with a warning in the report rather than trusted. The spectral bound is
part of the frame parameters, so weights made on another bound are
recomputed too.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from .chebyshev import sgwt_forward_fast, sgwt_inverse_fast
from .frame import POU_KINDS, PartitionOfUnity, require_base, require_window
from .graph import VARIANTS, laplacian
from .signals import (as_signal, require_choice, require_count,
                      require_finite, require_flag, require_positive)
from .sure import (DISTRIBUTIONS, WEIGHT_FINGERPRINT,
                   estimate_diagonal_weights, require_probes)
from .threshold import apply_policy, require_beta, select_thresholds_sure


def _field(default, help, choices=None):
    """A config field whose metadata gives the command line its flag."""
    return field(default=default, metadata={"help": help, "choices": choices})


@dataclass
class PipelineConfig:
    """Every tunable of the denoising chain, with its default: degree-100
    Chebyshev with Jackson damping, 2 Rademacher probes and the quadratic
    shrinkage exponent. 2 probes denoise as well as 5 or 10 on the
    benchmark's workloads (BENCH_probes.json: over 20 seeds each, the mean
    output-SNR change against 10 probes is within one seed-to-seed sd, and
    no input leaves the 6% SURE-against-loss band).

    The command line makes one flag of each field but sigma, with the type,
    default, help and choices given here.
    """

    variant: str = _field("unnormalized", "Laplacian variant", VARIANTS)
    kind: str = _field("linear", "partition-of-unity window kind", POU_KINDS)
    b: float = _field(2.0, "dilation base")
    c: float = _field(1.0, "smooth-window sharpness")
    K: int = _field(100, "Chebyshev polynomial degree")
    jackson: bool = _field(True, "Jackson damping of the Chebyshev "
                                 "coefficients")
    N: int = _field(2, "Monte-Carlo probe count for the SURE weights")
    distribution: str = _field("rademacher", "probe distribution",
                               DISTRIBUTIONS)
    beta: float = _field(2.0, "thresholding exponent (1 = soft)")
    sigma: float = _field(None, "noise scale published with the signal")
    seed: int = _field(0, "seed of the Monte-Carlo probes, and of the "
                          "signal or noise that synth, sanitize and bench "
                          "draw")

    def validate(self):
        """Check every field up front, by the checks of the modules that
        own them; K alone is checked here, as the transforms take K = 0.
        jackson goes through the weight estimate's check, as the transforms
        read it as a truth value, and seed through the count check that
        draw_probe makes of it."""
        require_choice("variant", self.variant, VARIANTS)
        require_window(self.kind, self.b, self.c)
        require_base(self.variant, self.b)
        require_count("K", self.K)
        require_flag("jackson", self.jackson)
        require_probes(self.N, self.distribution)
        require_count("seed", self.seed, least=0)
        require_beta(self.beta)
        if self.sigma is not None:
            require_positive("sigma", self.sigma)


def weight_fingerprint(graph_hash, pou, config):
    """Provenance string a cached weight estimate must match exactly."""
    return WEIGHT_FINGERPRINT.format(graph_hash=graph_hash,
                                     pou=pou.fingerprint(), **vars(config))


def frame_and_weights(L, config, graph_hash, cached=None):
    """(pou, estimate): the partition of unity config asks for on L, and
    its weight estimate on the graph of graph_hash, cached where it
    matches."""
    pou = PartitionOfUnity.for_operator(L, kind=config.kind, b=config.b,
                                        c=config.c)
    if (cached is not None and cached.fingerprint()
            == weight_fingerprint(graph_hash, pou, config)):
        return pou, cached
    return pou, estimate_diagonal_weights(
        L, pou, K=config.K, jackson=config.jackson, N=config.N,
        dist=config.distribution, seed=config.seed, graph_hash=graph_hash)


# where Linux reports a process's memory, VmHWM among it
PROC_STATUS = "/proc/self/status"


def _peak_rss_mb():
    """The process's peak resident set size so far (VmHWM), in MB, or None
    where PROC_STATUS does not exist.

    Not ``ru_maxrss``: a child started by vfork and exec inherits its
    parent's high-water mark there.
    """
    try:
        with open(PROC_STATUS) as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except FileNotFoundError:
        pass
    return None


@contextmanager
def timed(timings, stage, matvecs=None, L=None):
    """Record the wall time of the block, in ms, as timings[stage], and
    with an operator L, the Laplacian matvecs it ran as matvecs[stage]: a
    delta, since the counter is never reset, as callers may be counting
    too."""
    t0 = time.perf_counter()
    m0 = None if L is None else L.matvec_count
    yield
    timings[stage] = 1e3 * (time.perf_counter() - t0)
    if L is not None:
        matvecs[stage] = L.matvec_count - m0


def denoise_pipeline(graph, noisy, config, weights=None, operator=None):
    """Denoise a signal; returns (estimate, report).

    The report carries the per-scale thresholds, the SURE value they
    attain (the selection's minimum),
    per-stage wall times in ms, the Laplacian matvecs of the `weights`,
    `forward` and `inverse` stages (`matvecs`: N K, K and K + 1, with 0 for
    reused weights), the cache disposition (`hit`, `miss`, or
    `mismatch-recomputed` with a warning), and where the spectral bound
    came from with what it cost (`bound`: `source`, `matvecs`, `ms`), and
    the process's peak RSS at the end of the call (`peak_rss_mb`, None
    where the system does not report it). Everything except the timings
    and the peak RSS is deterministic in (config, seeds).

    The bound comes from `operator`, an already-built LaplacianOperator
    for the same graph and variant (`source` is `operator`, with the cost
    paid when it was built), or else from :func:`laplacian`: the proven cap
    2 of the normalized and random-walk variants (`cap`, no matvecs), or
    Lanczos for the unnormalized one (`lanczos`). Both are deterministic
    in (graph, variant), so the result does not depend on where the bound
    came from.
    """
    config.validate()
    if config.sigma is None:
        raise ValueError("config.sigma is required for denoising; pass the "
                         "noise scale published with the signal")
    noisy = as_signal(noisy, graph.n)
    require_finite(noisy)
    report = {"warnings": []}
    timings, matvecs = {}, {}

    with timed(timings, "setup"):
        graph_hash = graph.content_hash()
        if operator is None:
            L = laplacian(graph, config.variant)
            source = "lanczos" if L.bound_matvecs else "cap"
        else:
            if (operator.graph is not graph
                    or operator.variant != config.variant):
                raise ValueError("operator does not match the graph and "
                                 "variant")
            L = operator
            source = "operator"
        report["bound"] = {"source": source, "matvecs": L.bound_matvecs,
                           "ms": L.bound_ms}

    with timed(timings, "weights", matvecs, L):
        pou, estimate = frame_and_weights(L, config, graph_hash, weights)
        # a new estimate's fingerprint is the one the cache had to match
        if weights is None or estimate is weights:
            report["cache"] = "miss" if weights is None else "hit"
        else:
            report["warnings"].append(
                "cached weights do not match the current configuration; "
                f"recomputed (cache {weights.fingerprint()!r} vs "
                f"expected {estimate.fingerprint()!r})")
            report["cache"] = "mismatch-recomputed"
        weights = estimate

    # after the weights, so that the scaled weights their estimate makes
    # are never held beside the J + 1 coefficient blocks. The step outside
    # assembled() here keeps the coefficients bitwise those of a bare
    # forward transform: each threshold is one of their magnitudes, so one
    # ulp would move a kink term of SURE.
    with timed(timings, "forward", matvecs, L):
        coeffs = sgwt_forward_fast(L, noisy, pou, K=config.K,
                                   jackson=config.jackson)

    # the selection's minimum is the reported SURE: no derivative array
    # is made
    with timed(timings, "select"):
        policy, sure = select_thresholds_sure(coeffs, weights.diag,
                                              config.sigma, beta=config.beta)

    with timed(timings, "apply"):
        thresholded = apply_policy(coeffs, policy)

    # freed first, so that the scaled weights take their place: the
    # synthesis's K + 1 steps, on the operator's own interval, then run on
    # them below the peak of the stages above
    del coeffs
    with timed(timings, "inverse", matvecs, L), L.assembled():
        estimate = sgwt_inverse_fast(L, thresholded, pou, K=config.K,
                                     jackson=config.jackson)

    report.update(
        thresholds=[float(t) for t in policy.thresholds],
        sure=float(sure),
        sigma=float(config.sigma),
        n=graph.n,
        J=pou.J,
        lambda_ub=float(L.lambda_ub),
        fingerprint=weights.fingerprint(),
        timings_ms=timings,
        matvecs=matvecs,
        peak_rss_mb=_peak_rss_mb(),
    )
    return estimate, report
