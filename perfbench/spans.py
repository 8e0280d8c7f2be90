"""In-memory spans around the public functions of gsdenoise's modules.

The benchmark wraps functions from its own files; gsdenoise is not edited.
A wrapper replaces every binding of the original function object across
the loaded gsdenoise modules, so a call made through a name imported into
another module (``pipeline.sgwt_forward_fast``) is wrapped as well as one
made through the defining module.

Spans hold a name, start and end on ``time.perf_counter`` (the monotonic
clock, shared by every process on the machine) and the index of their
parent. A function whose first argument is a Laplacian operator also
records how far the operator's own ``matvec_count`` moved during the call.
Self time is a span's duration minus its direct children's.
"""

import functools
import importlib
import json
import statistics
import sys
import time
from contextlib import contextmanager

# Functions wrapped in every run: the pipeline and its transforms, whose
# results and matvec counts the correctness checks read.
STAGE = (
    ("pipeline", "denoise_pipeline"),
    ("chebyshev", "sgwt_forward_fast"),
    ("chebyshev", "sgwt_inverse_fast"),
    ("sure", "estimate_diagonal_weights"),
)
# Functions wrapped only in a traced run.
FINE = (
    ("graph", "LaplacianOperator.matvec"),
    ("graph", "estimate_spectral_bound"),
    ("graph", "laplacian"),
    ("graph", "read_edgelist"),
    ("_kernels", "csr_matvec"),
    ("sure", "save_weights"),
    ("sure", "load_weights"),
    ("sure", "sure_value"),
    ("threshold", "select_thresholds_sure"),
    ("threshold", "apply_policy"),
    ("signals", "synth_signal"),
    ("signals", "read_signal"),
    ("signals", "write_signal"),
    ("privacy", "calibrate_sigma"),
    ("privacy", "sanitize"),
    ("cli", "main"),
)
PIPELINE = "pipeline.denoise_pipeline"


class Span:
    __slots__ = ("name", "parent", "start", "end", "matvecs", "result")

    def __init__(self, name, parent, start, end=None, matvecs=None):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.matvecs = matvecs
        self.result = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects spans of one process. ``fine`` switches the traced-only
    wrappers on and off without unwrapping them; ``off()`` silences all of
    them, for the benchmark's own reference computations."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.fine = False
        self.paused = False

    @contextmanager
    def off(self):
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, parent, time.perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def current(self):
        return self._stack[-1] if self._stack else None

    def _wrap(self, fn, name, fine):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused or (fine and not self.fine):
                return fn(*args, **kwargs)
            op = args[0] if args and hasattr(args[0], "matvec_count") else None
            before = op.matvec_count if op is not None else 0
            s = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(s)
                if op is not None:
                    s.matvecs = op.matvec_count - before
            # keep what the checks read: the pipeline's report and the
            # results of its transform and weight stages
            if name == PIPELINE:
                s.result = out[1]
            elif (not fine and s.parent is not None
                  and self.spans[s.parent].name == PIPELINE):
                s.result = out
            return out
        return wrapper

    def install(self, traced):
        """Wrap the STAGE functions, and the FINE ones too when traced."""
        for mod in ("graph", "_kernels", "chebyshev", "sure", "threshold",
                    "signals", "privacy", "pipeline", "cli"):
            importlib.import_module(f"gsdenoise.{mod}")
        self.fine = traced
        table = [(m, a, False) for m, a in STAGE]
        if traced:
            table += [(m, a, True) for m, a in FINE]
        loaded = [m for k, m in sys.modules.items()
                  if k == "gsdenoise" or k.startswith("gsdenoise.")]
        for mod, attr, fine in table:
            owner = sys.modules[f"gsdenoise.{mod}"]
            if "." in attr:
                cls, meth = attr.split(".")
                owner = getattr(owner, cls)
                attr = meth
            orig = getattr(owner, attr)
            name = f"{mod}.{attr}"
            wrapped = self._wrap(orig, name, fine)
            setattr(owner, attr, wrapped)
            for m in loaded:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)

    def dump(self, path):
        """Write the spans as JSON, for a child process's parent to merge."""
        with open(path, "w") as fh:
            json.dump([[s.name, s.parent, s.start, s.end, s.matvecs]
                       for s in self.spans], fh)

    def merge(self, path, parent):
        """Append a child process's spans under the span at index parent."""
        with open(path) as fh:
            rows = json.load(fh)
        base = len(self.spans)
        for name, par, start, end, matvecs in rows:
            self.spans.append(Span(name, parent if par is None else base + par,
                                   start, end, matvecs))


def children(spans):
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            kids[s.parent].append(i)
    return kids


def self_times(spans, kids):
    return [s.duration - sum(spans[c].duration for c in kids[i])
            for i, s in enumerate(spans)]


def subtree(kids, root):
    out, todo = [], [root]
    while todo:
        i = todo.pop()
        out.append(i)
        todo.extend(kids[i])
    return out


def check_nesting(spans, kids, root):
    """Every span under root lies inside its parent and overlaps none of
    its siblings, child-process spans included. Then no self time is
    negative, and a request's self times split its wall time among its
    spans without counting any stretch twice. Raises ValueError."""
    for i in subtree(kids, root):
        s = spans[i]
        prev_end = s.start
        for c in sorted(kids[i], key=lambda c: spans[c].start):
            if spans[c].start < prev_end or spans[c].end > s.end:
                raise ValueError(f"span {spans[c].name} overlaps a sibling "
                                 f"or leaves its parent {s.name}")
            prev_end = spans[c].end


def median(values):
    return float(statistics.median(values))


# Per-layer times taken as the median duration of the spans of one name.
SPAN_TIMES = (
    ("graph.bound_s", "graph.estimate_spectral_bound"),
    ("graph.read_edgelist_s", "graph.read_edgelist"),
    ("sure.save_s", "sure.save_weights"),
    ("sure.load_s", "sure.load_weights"),
    ("threshold.select_s", "threshold.select_thresholds_sure"),
    ("threshold.apply_s", "threshold.apply_policy"),
    ("signals.synth_s", "signals.synth_signal"),
    ("signals.read_s", "signals.read_signal"),
    ("signals.write_s", "signals.write_signal"),
    ("privacy.calibrate_s", "privacy.calibrate_sigma"),
    ("privacy.sanitize_s", "privacy.sanitize"),
    ("pipeline.denoise_s", PIPELINE),
)


def layer_metrics(spans, matvec_bytes, skip=()):
    """Per-layer metrics of a traced run, as {name: (value, unit)}.

    Values are medians over the spans of a name; a metric whose spans did
    not occur is left out. The forward and inverse figures cover the
    pipeline's own transforms, not the probe transforms inside the weight
    estimate. ``matvec_bytes`` is the computed traffic of one matvec. The
    spans under the roots listed in ``skip`` are left out.
    """
    kids = children(spans)
    selfs = self_times(spans, kids)
    skipped = {i for root in skip for i in subtree(kids, root)}
    out = {}

    def pick(name, parent=None):
        return [i for i, s in enumerate(spans) if s.name == name
                and i not in skipped and (
                    parent is None or (s.parent is not None
                                       and spans[s.parent].name == parent))]

    def put(metric, unit, values, scale=1.0):
        values = list(values)
        if values:
            out[metric] = (scale * median(values), unit)

    for metric, name in SPAN_TIMES:
        put(metric, "s", (spans[i].duration for i in pick(name)))
    put("pipeline.self_s", "s", (selfs[i] for i in pick(PIPELINE)))
    put("graph.bound_matvecs", "count",
        (spans[i].matvecs for i in pick("graph.estimate_spectral_bound")))
    put("graph.matvecs", "count",
        (sum(spans[j].name == "graph.matvec" for j in subtree(kids, i))
         for i in pick("request")))
    put("graph.matvec_ms", "ms",
        (spans[i].duration for i in pick("graph.matvec")), 1e3)
    if "graph.matvec_ms" in out:
        out["graph.matvec_gbs_computed"] = (
            matvec_bytes / out["graph.matvec_ms"][0] / 1e6, "GB/s")
    put("kernels.csr_matvec_ms", "ms",
        (spans[i].duration for i in pick("_kernels.csr_matvec")), 1e3)
    for prefix, idx in (
            ("chebyshev.forward",
             pick("chebyshev.sgwt_forward_fast", PIPELINE)),
            ("chebyshev.inverse",
             pick("chebyshev.sgwt_inverse_fast", PIPELINE)),
            ("sure.weights", pick("sure.estimate_diagonal_weights"))):
        put(f"{prefix}_s", "s", (spans[i].duration for i in idx))
        put(f"{prefix}_self_s", "s", (selfs[i] for i in idx))
        put(f"{prefix}_matvecs", "count", (spans[i].matvecs for i in idx))
    # a request's own process where requests are processes, else the
    # file-layer probe's process
    put("cli.process_s", "s", (spans[i].duration for i in (
        pick("cli.process", "request") or pick("cli.process"))))
    return out
