"""Synthetic test signals, quality metrics, and signal file I/O.

The generator draws an iid Bernoulli(p) indicator vector and diffuses it k
times with the weighted adjacency, giving piecewise-smooth signals whose
energy concentrates on low graph frequencies; p controls sparsity of the
sources and k the smoothing. Quality is measured in dB as
snr(f, fhat) = 20 log10(|f| / |f - fhat|) and by per-node MSE.

Signal files are text: `# key = value` header lines, then either one real
per line (row index = node index) or `label,value` pairs resolved through
the graph's label map.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SignalSpec:
    """Bernoulli source density p, diffusion power k, and draw seed."""

    p: float
    k: int
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.p < 1:
            raise ValueError(f"p must lie in (0, 1), got {self.p}")
        if self.k < 0 or self.k != int(self.k):
            raise ValueError(f"k must be a nonnegative integer, got {self.k}")


def synth_signal(g, spec):
    """Draw x ~ Bernoulli(p)^n and return W^k x via repeated matvecs."""
    rng = np.random.default_rng(spec.seed)
    f = (rng.random(g.n) < spec.p).astype(np.float64)
    for _ in range(spec.k):
        f = g.adj_matvec(f)
    return f


def dot(u, v):
    """u @ v for two vectors, summed by einsum's own loop: BLAS's sum
    rounds differently under another BLAS thread count."""
    return float(np.einsum("i,i->", u, v))


def snr(f, fhat):
    """Signal-to-noise ratio of fhat against reference f, in dB.

    Returns +inf when fhat reproduces f exactly. The reference must be
    nonzero for the ratio to mean anything.
    """
    f = np.asarray(f, dtype=np.float64)
    fhat = np.asarray(fhat, dtype=np.float64)
    if f.shape != fhat.shape:
        raise ValueError(f"shape mismatch: {f.shape} vs {fhat.shape}")
    ref = math.sqrt(dot(f, f))
    if ref == 0.0:
        raise ValueError("snr undefined for a zero reference signal")
    d = f - fhat
    err = math.sqrt(dot(d, d))
    if err == 0.0:
        return math.inf
    return 20.0 * math.log10(ref / err)


def mse(a, b):
    """Mean squared difference between two equal-length signals."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    d = a - b
    return dot(d, d) / d.size if d.size else math.nan


def as_signal(f, n):
    """f as a C-contiguous float64 vector, refused unless its shape is
    (n,)."""
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (n,):
        raise ValueError(f"expected signal of length {n}, got shape "
                         f"{f.shape}")
    return np.ascontiguousarray(f)


def require_finite(f):
    """Refuse a signal with a non-finite sample, naming the first."""
    if not np.isfinite(f).all():
        i = int(np.argmin(np.isfinite(f)))
        raise ValueError(f"signal sample {i} is {f[i]!r}; every sample "
                         "must be finite")


def require_positive(name, value):
    """Refuse a value, such as a noise scale or a spectral bound, that is
    not positive and finite, naming it."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def require_count(name, value):
    """Refuse a count, such as a polynomial degree or a probe count, that
    is not an integer of at least 1, naming it. A bool is not a count;
    numpy integers are."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1")


def require_flag(name, value):
    """Refuse a switch, such as Jackson damping, that is not a bool, naming
    it. A numpy bool is a bool; 0, 1 and 2 are not."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r}")


def require_choice(name, value, choices):
    """Refuse a value that is not one of choices, naming it."""
    if value not in choices:
        raise ValueError(f"unknown {name} {value!r}; expected one of "
                         f"{choices}")


def require_weights(w):
    """Refuse a float array of SURE weights with an entry that is negative
    or not finite, naming the first."""
    # reductions, not elementwise masks, on the accepting path: a NaN makes
    # min() NaN, which fails the comparison
    if w.size and not (w.min() >= 0 and w.max() < np.inf):
        i = int(np.argmax(~((w >= 0) & (w < np.inf))))
        raise ValueError("weights must be finite and nonnegative; "
                         f"entry {i} is {w[i]!r}")


def write_signal(path, values, header=None):
    """Write one real per line with optional `# key = value` header lines."""
    values = np.asarray(values, dtype=np.float64)
    with open(path, "w") as fh:
        for key, val in (header or {}).items():
            fh.write(f"# {key} = {val}\n")
        if values.size:
            fh.write("\n".join(map(repr, values.tolist())))
            fh.write("\n")


def _header_line(line, header):
    """Record a stripped `# key = value` line in header; other comments are
    skipped."""
    body = line[1:].strip()
    if "=" in body:
        key, _, val = body.partition("=")
        header[key.strip()] = val.strip()


def read_signal(path, graph=None):
    """Read a signal file; returns (values, header dict).

    Blank lines are skipped, and `#` lines anywhere are header lines
    (`# key = value`) or comments. Bare lines hold one real whose row index
    is the node index. Lines of the form `label,value` are resolved through
    the graph's label map and require the graph argument; unnamed nodes
    default to 0, and a label given twice is rejected. A malformed value,
    or a label given twice, names the file and the line. Header values
    stay strings; callers coerce what they need.

    A body of bare values after the header, the layout `write_signal`
    gives, is converted by one call; any other body is read line by line.
    """
    with open(path) as fh:
        lines = fh.read().split("\n")
    header = {}
    first = len(lines)
    for i, line in enumerate(lines):
        line = line.strip()
        if line and not line.startswith("#"):
            first = i
            break
        if line:
            _header_line(line, header)
    last = len(lines)
    while last > first and not lines[last - 1].strip():
        last -= 1
    try:
        values = np.array(lines[first:last], dtype=np.float64)
    except ValueError:  # another layout, or a bad line: read line by line
        values = None
    if values is None:
        bare, labelled = [], []
        for lineno, line in enumerate(lines[first:], first + 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                _header_line(line, header)
                continue
            label, comma, val = line.partition(",")
            try:
                if comma:
                    labelled.append((lineno, label.strip(), float(val)))
                else:
                    bare.append(float(line))
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: bad value in {line!r}") from None
        if labelled and bare:
            raise ValueError(f"{path}: mixed bare and label,value lines")
        if labelled:
            return _resolve_labels(path, labelled, graph), header
        values = np.asarray(bare, dtype=np.float64)
    if graph is not None and values.size != graph.n:
        raise ValueError(
            f"{path}: {values.size} values for a graph with {graph.n} nodes")
    return values, header


def _resolve_labels(path, labelled, graph):
    """The signal of (lineno, label, value) lines on graph's nodes, in one
    lookup pass; unnamed nodes are 0."""
    if graph is None:
        raise ValueError(
            f"{path}: label,value lines need a graph to resolve labels")
    index = graph.label_index()
    seen = {}
    nodes = []
    for lineno, label, _ in labelled:
        node = index.get(label)
        if node is None:
            raise ValueError(f"{path}: unknown node label {label!r}")
        if label in seen:
            raise ValueError(f"{path}:{lineno}: node label {label!r} given "
                             f"twice, first on line {seen[label]}")
        seen[label] = lineno
        nodes.append(node)
    values = np.zeros(graph.n)
    values[nodes] = [val for _, _, val in labelled]
    return values
