"""Sparse undirected graphs and their Laplacian operators.

Graphs are stored in compressed adjacency form (CSR of the symmetric weighted
adjacency matrix), with int32 offsets and indices while n plus the stored
entries stay below 2^31, so that a product reads 12 bytes per stored
entry; the content hash sees their int64 values either way. Laplacians act
through ``LaplacianOperator.matvec`` in O(m + n) per application, as the
plain product or as one Chebyshev step on the operator's own interval,
each one COO product over the nonzero entries of its diagonal and one CSR
product over the graph's own offsets and indices (``_kernels``, scipy's
compiled kernels). Each operator is built with a bound
``lambda_ub`` on its largest eigenvalue, the right end of its Chebyshev
interval, so no operator is without one: the bound given to its
constructor, or else the proven cap 2 for the normalized and random-walk
variants, whose spectrum lies in [0, 2]; for the unnormalized one,
Lanczos's top Ritz value times 1.01, capped by Gershgorin's proven
2 max(degrees). Lanczos stops early, and returns the cap, as soon as the
estimate reaches it: 12 matvecs on the 300x300 grid.

Graphs come from records (``build_graph``), from CSR arrays (``from_csr``),
from the generators, or from text edge lists (``read_edgelist``), which
are parsed by numpy passes over the file's bytes with no Python object per
token, into the graph ``build_graph`` makes of the same records.
"""

import hashlib
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._kernels import (COO, CSR, coo_matvec, csr_matvec, csr_scale_columns,
                       csr_scale_rows)
from .signals import as_signal, dot, require_choice, require_positive

VARIANTS = ("unnormalized", "normalized", "random_walk")
DENSE_CAP = 5000  # the most nodes a dense n x n copy is made for
BOUND_MARGIN = 0.01  # Lanczos's bound is its top Ritz value times 1.01
INT32_BOUND = 2 ** 31  # index arrays are int32 while n + nnz stays below


@dataclass(eq=False)
class SparseGraph:
    """Immutable undirected weighted graph in compressed adjacency form.

    offsets/indices/weights describe the symmetric adjacency matrix row by
    row: entries of row i live in positions offsets[i]:offsets[i+1]. Every
    edge (i, j, w) is stored twice, once per direction. ``labels`` keeps the
    original node identifiers when the graph was densified from an edge list.

    offsets and indices are int32 when n plus the stored-entry count is
    below 2^31 (``INT32_BOUND``), so that every offset and every node
    number fits them; int64 otherwise. A product then reads 12 bytes per
    stored entry, not 16. Contiguous arrays given in the stored dtypes
    are kept, not copied.
    """

    n: int
    offsets: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    labels: list = None

    def __post_init__(self):
        # checked as int64, so that no value wraps when narrowed; a pair
        # that arrives as int32, where none can, is checked as it is
        given = np.int32 if all(getattr(a, "dtype", None) == np.int32 for a
                                in (self.offsets, self.indices)) else np.int64
        offsets = np.ascontiguousarray(self.offsets, dtype=given)
        indices = np.ascontiguousarray(self.indices, dtype=given)
        self.weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        if offsets.shape != (self.n + 1,):
            raise ValueError("offsets must have length n + 1")
        if offsets[0] != 0 or offsets[-1] != indices.size:
            raise ValueError("offsets must start at 0 and end at nnz")
        # compared, not differenced: a difference could wrap
        if np.any(offsets[1:] < offsets[:-1]):
            raise ValueError("offsets must be monotone")
        if indices.size != self.weights.size:
            raise ValueError("indices and weights length mismatch")
        # the CSR kernel reads x[indices] unchecked
        if indices.size and not (0 <= indices.min()
                                 and indices.max() < self.n):
            raise ValueError("column indices must lie in [0, n)")
        itype = np.int32 if self.n + indices.size < INT32_BOUND else np.int64
        self.offsets = offsets.astype(itype, copy=False)
        self.indices = indices.astype(itype, copy=False)

    @property
    def m(self):
        """Undirected edge count."""
        return self.indices.size // 2

    @cached_property
    def adjacency(self):
        """The adjacency as a scipy CSR array over this graph's own arrays,
        for scipy's graph routines (:func:`is_connected`).

        No entry is copied: sparse arrays keep int32 and int64 index arrays
        as given.
        No product goes through it, so scipy.sparse, whose import costs
        about 0.15 s, is imported only where such a routine runs.
        """
        from scipy.sparse import csr_array
        return csr_array((self.weights, self.indices, self.offsets),
                         shape=(self.n, self.n), copy=False)

    @cached_property
    def degrees(self):
        return self.adj_matvec(np.ones(self.n))

    def adj_matvec(self, x):
        """Weighted adjacency product W @ x, into a new array."""
        return csr_matvec(CSR(self.weights, self.indices, self.offsets,
                              (self.n, self.n)), as_signal(x, self.n))

    def label_index(self):
        """Mapping from node label to dense index."""
        if self.labels is None:
            return {str(i): i for i in range(self.n)}
        return {str(lab): i for i, lab in enumerate(self.labels)}

    def content_hash(self):
        """Short hash of the graph content, for cache fingerprints; made once,
        as the graph is immutable."""
        return self._content_hash

    @cached_property
    def _content_hash(self):
        # the index arrays are hashed as int64 values, whatever their dtype,
        # so a graph's hash, and the weight caches keyed by it, do not
        # depend on how it is stored
        h = hashlib.sha256()
        h.update(str(self.n).encode())
        h.update(self.offsets.astype(np.int64, copy=False))
        h.update(self.indices.astype(np.int64, copy=False))
        h.update(self.weights)
        return h.hexdigest()[:16]

    def to_dense_adjacency(self):
        if self.n > DENSE_CAP:
            raise ValueError(f"dense adjacency refused for n={self.n} > "
                             f"{DENSE_CAP}")
        W = np.zeros((self.n, self.n))
        W[_entry_rows(self), self.indices] = self.weights
        return W


def _entry_rows(g):
    """Row index of each stored adjacency entry."""
    return np.repeat(np.arange(g.n), np.diff(g.offsets))


def _assemble(rows, cols, w, n, labels):
    """Symmetrize, collapse duplicate edges by summing, build CSR."""
    r2 = np.concatenate([rows, cols])
    c2 = np.concatenate([cols, rows])
    w2 = np.concatenate([w, w])
    # collapse duplicates: unique (row, col) keys, bincount the weights
    keys = r2.astype(np.int64) * n + c2
    uniq, inv = np.unique(keys, return_inverse=True)
    w = np.bincount(inv, weights=w2)
    rows = (uniq // n).astype(np.int64)
    cols = (uniq % n).astype(np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=offsets[1:])
    return SparseGraph(n, offsets, cols, w, labels=labels)


def _check_record(rec, u, v, w):
    """Reject a self-loop, then a weight outside (0, inf), naming rec."""
    if u == v:
        raise ValueError(f"self-loop rejected: {rec!r}")
    if not 0 < w < math.inf:
        raise ValueError(f"non-positive or non-finite weight rejected: "
                         f"{rec!r}")


def build_graph(edge_records):
    """Build a SparseGraph from (u, v[, weight]) records.

    Node identifiers may be any hashable values; they are densified to
    0..n-1 in order of first appearance and kept as labels. Duplicate
    undirected edges collapse by summing their weights. Self-loops and
    non-positive or non-finite weights are rejected with the offending
    record.
    """
    index = {}
    labels = []
    us, vs, ws = [], [], []
    for rec in edge_records:
        u, v, w = rec if len(rec) == 3 else (*rec, 1.0)
        w = float(w)
        _check_record(rec, u, v, w)
        for node in (u, v):
            if node not in index:
                index[node] = len(labels)
                labels.append(node)
        us.append(index[u])
        vs.append(index[v])
        ws.append(w)
    if not us:
        raise ValueError("empty edge list")
    n = len(labels)
    return _assemble(np.asarray(us, dtype=np.int64),
                     np.asarray(vs, dtype=np.int64),
                     np.asarray(ws), n, labels)


def from_csr(n, offsets, indices, weights, labels=None):
    """Wrap CSR arrays as a SparseGraph, once the adjacency is checked for
    symmetry, positive finite weights and absence of self-loops."""
    g = SparseGraph(n, offsets, indices, weights, labels=labels)
    rows = _entry_rows(g)
    bad = ~((g.weights > 0) & (g.weights < np.inf))
    if bad.any():
        e = int(np.argmax(bad))
        raise ValueError("non-positive or non-finite weight in adjacency: "
                         f"entry ({rows[e]}, {g.indices[e]}) is "
                         f"{float(g.weights[e])!r}")
    if np.any(rows == g.indices):
        raise ValueError("self-loop in adjacency")
    fwd = np.lexsort((g.indices, rows))
    bwd = np.lexsort((rows, g.indices))
    if (not np.array_equal(rows[fwd], g.indices[bwd])
            or not np.array_equal(g.indices[fwd], rows[bwd])
            or not np.allclose(g.weights[fwd], g.weights[bwd],
                               rtol=0, atol=0)):
        raise ValueError("adjacency is not symmetric")
    return g


# A bytes.translate table that maps the bytes str.split() takes for
# whitespace to 0 and all others to 1. Of those, b"\n" also ends a line.
# The wider whitespace characters of _WIDE_SPACES are turned into spaces
# before the text is encoded.
_TOKEN = bytes(b not in b" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"
               for b in range(256))
_WIDE_SPACES = dict.fromkeys([0x85, 0xa0, 0x1680, *range(0x2000, 0x200b),
                              0x2028, 0x2029, 0x202f, 0x205f, 0x3000], " ")


def _padded(buf, starts, lens, width):
    """The tokens of buf at starts, lens bytes each, as the rows of a
    (count, width) byte matrix, left-aligned and padded with spaces."""
    rows = np.full((starts.size, width), ord(" "), dtype=np.uint8)
    for k in range(int(lens.max(initial=0))):
        rows[:, k] = np.where(lens > k, buf.take(starts + k, mode="clip"),
                              ord(" "))
    return rows


def _groups(widths):
    """Token indices by width, one array per width, each in token order."""
    if not widths.size:
        return []
    by = np.argsort(widths, kind="stable")
    return np.split(by, np.flatnonzero(np.diff(widths[by])) + 1)


def _floats(buf, starts, lens):
    """float() of each token, by one numpy cast of the tokens of each
    length as byte strings; returns (values, None), or (None, i) for the
    first token that float() rejects.

    Every token is followed by a space, since the cast would take a
    trailing NUL for padding. The cast reads ASCII only: when it fails,
    float() looks for the bad token, and converts the digits outside
    ASCII that it reads if there is none.
    """
    values = np.empty(starts.size)
    try:
        for group in _groups(lens):
            width = int(lens[group[0]]) + 1
            tokens = _padded(buf, starts[group], lens[group], width)
            values[group] = tokens.view(f"S{width}").ravel().astype(float)
        return values, None
    except ValueError:
        pass
    for i, (start, size) in enumerate(zip(starts.tolist(), lens.tolist())):
        try:
            values[i] = float(buf[start:start + size].tobytes().decode())
        except ValueError:
            return None, i
    return values, None


def _number_labels(buf, starts, lens):
    """Node index of each label token, numbered in order of first
    appearance, and the labels in that order.

    Each token becomes a space-padded key: a uint64 for labels of up to 7
    bytes, else a byte string one byte longer than the label. Labels hold
    no whitespace, so no key is another label's, and the labels come back
    from the keys of their first appearances by one split. Tokens are
    keyed by key width, so that one long label does not widen every key;
    labels of different widths differ. A label's first appearance is the
    minimum over its tokens, not np.unique's return_index, whose stable
    sort takes three times as long.
    """
    widths = np.where(lens < 8, 8, lens + 1)
    inverse = np.empty(lens.size, dtype=np.intp)
    firsts, labels = [], []
    for group in _groups(widths):
        width = int(widths[group[0]])
        keys = _padded(buf, starts[group], lens[group], width)
        _, inv = np.unique(
            keys.view(np.uint64 if width == 8 else f"S{width}").ravel(),
            return_inverse=True)
        first = np.full(inv.max() + 1, inv.size)
        np.minimum.at(first, inv, np.arange(inv.size))
        inverse[group] = inv + len(labels)
        labels += keys[first].tobytes().decode().split()
        firsts.append(group[first])
        del keys, inv
    order = np.argsort(np.concatenate(firsts))
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return rank[inverse], [labels[i] for i in order.tolist()]


def read_edgelist(path):
    """Read the text edge-list format: one ``u v [w]`` per line.

    A line's tokens are those of ``str.split()``. Blank lines, and lines
    whose first token starts with ``#``, are skipped wherever they are;
    every other line holds 2 or 3 tokens, and the weight defaults to 1.0.
    Labels are strings, numbered in order of first appearance, so the graph
    is the one :func:`build_graph` makes of the lines' records, with the
    same errors in the same order: a malformed line or a bad weight first,
    in line order, naming the file and the line; then the first self-loop
    or non-positive or non-finite weight; then an empty list.

    The text is parsed by numpy passes over its bytes, with no Python
    object per token, and each pass's arrays are freed before the final
    assembly, which then sets the peak: about 7.5 times the file's size
    under tracemalloc on the files :func:`write_edgelist` writes.
    """
    with open(path) as fh:
        text = fh.read()
    if not text.isascii():
        text = text.translate(_WIDE_SPACES)
    data = text.encode()
    del text
    buf = np.frombuffer(data, dtype=np.uint8)
    # the bytes' token flags, padded with a 0 on either side, flip at the
    # start of each token and again after its end
    flips = np.flatnonzero(np.diff(
        np.frombuffer(data.translate(_TOKEN), dtype=bool),
        prepend=False, append=False))
    starts, ends = flips[0::2], flips[1::2]
    line = np.searchsorted(np.flatnonzero(buf == ord("\n")), starts)
    heads = np.flatnonzero(np.diff(line, prepend=-1))  # first token of a line
    counts = np.diff(heads, append=starts.size)
    linenos = line[heads] + 1
    del line
    comment = buf[starts[heads]] == ord("#")
    edge = ~comment & ((counts == 2) | (counts == 3))
    malformed = linenos[~comment & ~edge]
    heads, linenos, weighted = heads[edge], linenos[edge], counts[edge] == 3
    del counts, comment, edge
    # the u and v tokens of each edge line, interleaved, then the weights
    pair = np.repeat(heads, 2)
    pair[1::2] += 1
    lstart = starts[pair]
    llen = ends[pair] - lstart
    wtok = heads[weighted] + 2
    wstart = starts[wtok]
    wlen = ends[wtok] - wstart
    del flips, starts, ends, pair, wtok, heads
    values, bad = _floats(buf, wstart, wlen)
    if bad is not None:
        at = int(linenos[weighted][bad])
        if not malformed.size or at < malformed[0]:
            token = data[wstart[bad]:wstart[bad] + wlen[bad]].decode()
            raise ValueError(f"{path}:{at}: bad weight {token!r}")
    if malformed.size:
        at = int(malformed[0])
        with open(path) as fh:  # for the line as written
            line = fh.read().split("\n")[at - 1].strip()
        raise ValueError(f"{path}:{at}: expected 'u v [w]', got {line!r}")
    if not linenos.size:
        raise ValueError("empty edge list")
    del wstart, wlen, malformed, linenos
    ids, labels = _number_labels(buf, lstart, llen)
    del buf, data, lstart, llen
    us, vs = ids[0::2], ids[1::2]
    w = np.ones(us.size)
    w[weighted] = values
    del values, weighted
    bad = (us == vs) | ~((w > 0) & (w < math.inf))
    if bad.any():
        r = int(np.argmax(bad))
        u, v, wr = labels[us[r]], labels[vs[r]], float(w[r])
        _check_record((u, v, wr), u, v, wr)
    del bad
    return _assemble(us, vs, w, len(labels), labels)


def write_edgelist(g, path):
    """Write g as text, one ``u v w`` line per undirected edge.

    Labels are written by str(). One whose str() is empty, holds
    whitespace or starts with ``#`` would not read back as one label, nor
    would two with the same str(), so they are refused before the file is
    opened.
    """
    seen = {}
    for label in g.labels or ():
        s = str(label)
        if s.split() != [s] or s.startswith("#"):
            raise ValueError(
                f"label {label!r} cannot be read back from an edge list: "
                "its str() is empty, holds whitespace or starts with '#'")
        if s in seen:
            raise ValueError(f"labels {seen[s]!r} and {label!r} cannot be "
                             "read back from an edge list: both are written "
                             f"as {s!r}")
        seen[s] = label
    labels = g.labels if g.labels is not None else list(range(g.n))
    rows = _entry_rows(g)
    with open(path, "w") as fh:
        fh.write(f"# n={g.n} m={g.m}\n")
        keep = rows < g.indices  # each undirected edge once
        for i, j, w in zip(rows[keep], g.indices[keep], g.weights[keep]):
            fh.write(f"{labels[i]} {labels[j]} {float(w)!r}\n")


# ---------------------------------------------------------------------------
# synthetic graph generators

def grid_graph(rows, cols):
    """4-neighbor lattice with unit weights, rows*cols nodes.

    Its CSR arrays are written directly: node i's neighbours, in increasing
    index, are i - cols, i - 1, i + 1 and i + cols where they exist. So the
    offsets are a running sum of the degrees, and the indices one take of
    the four candidates masked by their existence flags, made in the index
    dtype the graph stores, with no edge list, sort or int64 copy. On
    300x300 to 1000x1000 the build peaks at 6.6 signal vectors under
    tracemalloc, of which the graph it returns holds 6.5.
    """
    n = rows * cols
    exists = np.zeros((rows, cols, 4), dtype=bool)
    exists[1:, :, 0] = exists[:, 1:, 1] = True
    exists[:, :-1, 2] = exists[:-1, :, 3] = True
    nnz = np.count_nonzero(exists)
    itype = np.int32 if n + nnz < INT32_BOUND else np.int64
    # 4, less one for each side of the grid that a node lies on: the count
    # of its flags, without a sum over them, which took 30% of the build
    degree = np.full((rows, cols), 4, dtype=itype)
    degree[:1] -= 1
    degree[-1:] -= 1
    degree[:, :1] -= 1
    degree[:, -1:] -= 1
    offsets = np.empty(n + 1, dtype=itype)
    offsets[0] = 0
    np.cumsum(degree, dtype=itype, out=offsets[1:])
    del degree
    node = np.arange(n, dtype=itype).reshape(rows, cols)
    near = np.empty((rows, cols, 4), dtype=itype)
    for k, step in enumerate((-cols, -1, 1, cols)):
        np.add(node, step, out=near[:, :, k])
    indices = near[exists]
    del exists, node, near
    return SparseGraph(n, offsets, indices, np.ones(nnz))


def is_connected(g):
    """True when every node is reachable from every other."""
    from scipy.sparse.csgraph import connected_components
    # The adjacency is symmetric, so its strong components are the graph's
    # components, and the strong search needs no transposed copy.
    count = connected_components(g.adjacency, directed=True,
                                 connection="strong", return_labels=False)
    return count == 1


def random_geometric_graph(n, seed=0):
    """Uniform points in the unit square joined when closer than a radius.

    The radius grows until the graph is connected, starting from the usual
    connectivity threshold sqrt(2 log n / (pi n)). Close pairs come from a
    k-d tree, so memory stays linear in the edge count.
    """
    from scipy.spatial import cKDTree
    if n < 2:
        raise ValueError("need at least 2 nodes")
    rng = np.random.default_rng(seed)
    tree = cKDTree(rng.random((n, 2)))
    radius = math.sqrt(2.0 * math.log(n) / (math.pi * n))
    while True:
        pairs = tree.query_pairs(radius, output_type="ndarray")
        if pairs.size:
            g = _assemble(pairs[:, 0], pairs[:, 1], np.ones(len(pairs)), n,
                          None)
            if g.degrees.min() > 0 and is_connected(g):
                return g
        radius *= 1.3


def random_connected_graph(n, extra_edges=None, seed=0, weighted=True):
    """Random spanning tree plus extra random edges, optionally weighted.

    Guarantees connectivity, so every degree is positive. Each drawn edge
    gets a weight uniform on [0.5, 2.0] when weighted, else 1; a pair drawn
    twice keeps the sum of its draws.
    """
    if n < 2:
        raise ValueError("need at least 2 nodes")
    rng = np.random.default_rng(seed)
    parents = rng.integers(0, np.arange(1, n))
    r = [np.arange(1, n, dtype=np.int64)]
    c = [parents]
    if extra_edges is None:
        extra_edges = n
    if extra_edges:
        eu = rng.integers(0, n, size=extra_edges)
        ev = rng.integers(0, n, size=extra_edges)
        keep = eu != ev
        r.append(eu[keep])
        c.append(ev[keep])
    r = np.concatenate(r)
    c = np.concatenate(c)
    w = rng.uniform(0.5, 2.0, size=r.size) if weighted else np.ones(r.size)
    return _assemble(r, c, w, n, None)


# ---------------------------------------------------------------------------
# Laplacian operators

@dataclass(eq=False)
class LaplacianOperator:
    """Matrix-free graph Laplacian of a given variant.

    Applications go through :meth:`matvec`, which also counts calls so tests
    can verify the advertised operation counts. ``lambda_ub`` bounds the
    largest eigenvalue from above. The constructor takes it as given, or
    else estimates it (see :func:`estimate_spectral_bound`), under the
    proven cap of :func:`spectral_cap`; ``bound_matvecs`` and ``bound_ms``
    record what the estimate cost, 0 when the bound was given, and the
    matvec counter then starts at 0. A bound that is not positive and
    finite is refused. Every Chebyshev step, and so every filter
    expansion, runs on [0, lambda_ub].

    A Chebyshev step, 2 ((2 / lambda_ub) L - I) x - prev, is three parts:
    out = -prev; the nonzero entries of the shifted diagonal
    4 diag / lambda_ub - 2, diag the degrees or 1, added by the COO kernel
    (:attr:`_step_terms`), and none at all where there are none, as for
    the normalized variants at the cap 2; then one CSR product over the
    graph's own offsets and indices with the off-diagonal weights
    -(4 / lambda_ub) A, A the graph's weights W for the unnormalized
    variant, deg^-1/2 W deg^-1/2 and W / deg for the normalized and
    random-walk ones. Those two hold their weights so scaled, made once
    when the operator is built. The unnormalized variant reads the graph's
    weights themselves and scales x by -4 / lambda_ub each step, or,
    inside :meth:`assembled`, reads a copy of the weights scaled once for
    the context, as the Monte-Carlo weights' probe loop (N K steps) and a
    request's synthesis (K + 1 steps) do. On a unit-weight graph both give
    the same bits; the analysis runs outside the context, so that its
    coefficients, and the thresholds picked from them, are bitwise those
    of a bare ``chebyshev.sgwt_forward_fast``. The plain product,
    diag x - A x, which only Lanczos takes, runs through the same three
    parts, with every diagonal entry, and the held weights with post -1
    or lambda_ub / 4.
    """

    graph: SparseGraph
    variant: str
    lambda_ub: float = None
    matvec_count: int = field(init=False)
    bound_matvecs: int = field(init=False)
    bound_ms: float = field(init=False)

    def __post_init__(self):
        require_choice("variant", self.variant, VARIANTS)
        g = self.graph
        deg = g.degrees
        if deg.min() <= 0:
            bad = int(np.argmin(deg))
            name = g.labels[bad] if g.labels else bad
            raise ValueError(f"zero-degree node {name!r} has no Laplacian")
        self.degrees = deg
        # the plain product of the unnormalized variant, for Lanczos
        self._adjacency = CSR(g.weights, g.indices, g.offsets, (g.n, g.n))
        self._post = -1.0
        self.matvec_count = self.bound_matvecs = 0
        self.bound_ms = 0.0
        if self.lambda_ub is None:
            t0 = time.perf_counter()
            self.lambda_ub = estimate_spectral_bound(self)
            self.bound_ms = 1e3 * (time.perf_counter() - t0)
            self.bound_matvecs = self.matvec_count
            self.matvec_count = 0
        self.lambda_ub = float(self.lambda_ub)
        require_positive("lambda_ub", self.lambda_ub)
        post = -4.0 / self.lambda_ub
        if self.variant != "unnormalized":
            inv = 1.0 / (np.sqrt(deg) if self.variant == "normalized" else deg)
            weights = g.weights.copy()  # scaled in place from here on
            self._adjacency = csr_scale_rows(
                self._adjacency._replace(data=weights), inv)
            if self.variant == "normalized":
                csr_scale_columns(self._adjacency, inv)
            weights *= post
            # the plain product undoes the step's scale, the step takes none
            self._post, post = self.lambda_ub / 4.0, None
        # the step's weights, and the scale of x it takes, None for none
        self._step = self._adjacency, post

    @property
    def n(self):
        return self.graph.n

    def reset_matvec_count(self):
        self.matvec_count = 0

    @cached_property
    def _step_terms(self):
        """The nonzero entries of the step's shifted diagonal
        4 diag / lambda_ub - 2 as one ``_kernels.COO`` record: on a grid at
        its Gershgorin cap, the boundary nodes' alone, whose degree is not
        the top one; none for the normalized variants at the cap 2; every
        node's under a Lanczos bound on an irregular graph. The rows take
        the graph's index dtype, and where every entry is nonzero the
        diagonal is held as made: with int32 indices the record then holds
        1.5 signal vectors, and its making peaks at 2.5.

        A bound that some Rayleigh quotient of L exceeds is below lambda_max,
        and the recurrence would grow geometrically, so it is refused here,
        at the first step: one below the largest diagonal entry of L, an
        entry above 2, and then, for a bound below the proven cap of
        :func:`spectral_cap`, one below the largest quotient at an edge
        (:func:`_top_edge_quotient`). The plain product never reads the
        bound."""
        n = self.n
        top = self.degrees if self.variant == "unnormalized" else 1.0
        diag = np.broadcast_to(4.0 / self.lambda_ub * top - 2.0, (n,))
        if diag.max() > 2.0:
            # each L_ii = e_i' L e_i is a Rayleigh quotient
            raise ValueError(f"lambda_ub {self.lambda_ub!r} is below the "
                             "largest diagonal entry of L, "
                             f"{float(np.max(top))!r}, so below its largest "
                             "eigenvalue")
        if self.lambda_ub < spectral_cap(self.graph, self.variant):
            edge = _top_edge_quotient(self.graph, self.variant)
            if edge > self.lambda_ub:
                raise ValueError(
                    f"lambda_ub {self.lambda_ub!r} is below {edge!r}, the "
                    "largest Rayleigh quotient of (e_i +- e_j) / sqrt(2) "
                    "over the edges (i, j), so below the largest eigenvalue "
                    "of L")
        rows = np.flatnonzero(diag).astype(self.graph.indices.dtype)
        diag = diag[rows] if rows.size < n else np.ascontiguousarray(diag)
        return COO(diag, rows, rows, (n, n))

    @contextmanager
    def assembled(self):
        """Within the context, run every Chebyshev step over weights scaled
        for it, so that no step scales x.

        For the unnormalized variant that is a copy of the graph's weights
        times -4 / lambda_ub, made on entry and dropped on exit, over the
        graph's own offsets and indices: one array of the stored-entry
        count, 4 signal vectors on a degree-4 grid. The normalized and
        random-walk operators hold theirs so scaled already, and nothing is
        made. A context nested in an open one reuses its weights.
        """
        prior = self._step
        weights, post = prior
        if post is not None:
            self._step = weights._replace(data=weights.data * post), None
        try:
            yield self
        finally:
            self._step = prior

    def matvec(self, x, out=None, prev=None, step=False):
        """L x - prev, O(m + n), with prev=None as 0; one application counted.

        With step=True it applies instead one Chebyshev step on
        [0, lambda_ub], 2 ((2 / lambda_ub) L - I) x - prev. Either is
        out = -prev, the diagonal's nonzero entries added by the COO kernel
        and the off-diagonal by the CSR kernel, as the class docstring
        says. The result goes to out when given, which may be x or prev
        itself. A call that raises is not counted.
        """
        n = self.n
        x = as_signal(x, n)
        if out is not None and np.may_share_memory(out, x):
            x = x.copy()  # the kernels read x while they write out
        if step:
            diag, (weights, post) = self._step_terms, self._step
        else:  # no index array is held for the plain product
            rows = np.arange(n, dtype=self.graph.indices.dtype)
            diag = COO(self.degrees if self.variant == "unnormalized"
                       else np.ones(n), rows, rows, (n, n))
            weights, post = self._adjacency, self._post
        out = _negated(prev, out, n)
        if diag.data.size:
            coo_matvec(diag, x, out)
        out = csr_matvec(weights, x if post is None else x * post, out)
        self.matvec_count += 1
        return out


def _top_edge_quotient(g, variant):
    """The largest Rayleigh quotient of (e_i + e_j) / sqrt(2) and
    (e_i - e_j) / sqrt(2) over the stored entries (i, j) of g's Laplacian,
    (L_ii + L_jj) / 2 + |L_ij|: (deg_i + deg_j) / 2 + w_ij for the
    unnormalized variant; 1 + w_ij / sqrt(deg_i deg_j) for the normalized
    one, and for the random-walk one, whose symmetric similar matrix it is.
    The terms in j come from one gather over the stored entries, and each
    row's largest from one reduction."""
    rows = g.offsets[:-1]  # every row holds an entry: no degree is 0
    if variant == "unnormalized":
        half = 0.5 * g.degrees
        near = half[g.indices]
        near += g.weights
        return float(np.max(half + np.maximum.reduceat(near, rows)))
    isd = 1.0 / np.sqrt(g.degrees)
    near = isd[g.indices]
    near *= g.weights
    return float(np.max(1.0 + isd * np.maximum.reduceat(near, rows)))


def _negated(prev, out, n):
    """-prev, or 0 where prev is None, into out, or into a new array where
    out is None; out may be prev itself."""
    if out is None:
        out = np.empty(n)
    if prev is None:
        out.fill(0.0)
        return out
    return np.negative(prev, out=out)


def laplacian(g, variant="unnormalized", lambda_ub=None):
    """The Laplacian operator of g with its spectral bound, given or
    estimated: ``LaplacianOperator(g, variant, lambda_ub)``."""
    return LaplacianOperator(g, variant, lambda_ub)


def spectral_cap(g, variant):
    """A proven upper bound on the largest Laplacian eigenvalue, free to
    compute: Gershgorin's 2 max(degrees) for the unnormalized variant, 2
    for the normalized and random-walk variants (Chung, Spectral Graph
    Theory, 1997)."""
    if variant == "unnormalized":
        return 2.0 * float(g.degrees.max())
    return 2.0


def _top_eigenvalue(alphas, betas):
    """Largest eigenvalue of the symmetric tridiagonal matrix with diagonal
    alphas and off-diagonal betas, by bisection until no float lies
    between the ends of the bracket.

    x lies above every eigenvalue exactly when every pivot of T - x I is
    negative (Sturm). A pivot that is not means that the leading block up
    to it, and so T by interlacing, has an eigenvalue at or above x; so the
    recurrence stops there and never divides by a pivot that is not
    negative. Plain float arithmetic, with no LAPACK: its result does not
    depend on the BLAS, and it loads no library code.
    """
    off = [0.0, *betas, 0.0]
    radii = [abs(off[i]) + abs(off[i + 1]) for i in range(len(alphas))]
    lo = min(a - r for a, r in zip(alphas, radii))
    hi = max(a + r for a, r in zip(alphas, radii))
    while True:
        x = 0.5 * (lo + hi)
        if not lo < x < hi:
            return hi
        d = -1.0
        for a, b in zip(alphas, off):
            d = a - x - b * b / d
            if d >= 0:
                lo = x
                break
        else:
            hi = x


def estimate_spectral_bound(L, tol=1e-6, seed=0):
    """Upper bound on the largest Laplacian eigenvalue: the proven cap of
    :func:`spectral_cap`, with no matvec, for the normalized and
    random-walk variants; for the unnormalized one, Lanczos under that cap.

    The three-term Lanczos recurrence starts from a seeded random vector and
    keeps no basis and no reorthogonalisation. After step k, the top Ritz
    value theta of the k x k tridiagonal is a lower bound on lambda_max,
    and it only grows with k, since the Ritz values of consecutive steps
    interlace. The loop stops when theta's relative change drops to tol,
    or when beta_k is 0 (the Krylov space is invariant), and returns
    theta (1 + BOUND_MARGIN) or the cap, whichever is less; the margin
    covers theta's remaining shortfall, which nothing here proves. Once
    theta (1 + BOUND_MARGIN) reaches the cap, the loop stops early and returns
    the cap, as a full run would.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    cap = spectral_cap(L.graph, L.variant)
    if L.variant != "unnormalized":
        return cap
    # dot, not BLAS: the bound enters the weight-cache fingerprint by repr
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(L.n)
    v /= dot(v, v) ** 0.5
    v_prev = np.zeros(L.n)
    alphas, betas = [], []
    beta, theta_prev = 0.0, -np.inf
    for _ in range(L.n):
        # w = L v - beta v_prev, written over v_prev
        v_prev *= beta
        w = L.matvec(v, out=v_prev, prev=v_prev)
        alphas.append(dot(v, w))
        w -= alphas[-1] * v
        theta = _top_eigenvalue(alphas, betas)
        beta = dot(w, w) ** 0.5
        betas.append(beta)
        if (theta * (1.0 + BOUND_MARGIN) >= cap or beta == 0
                or abs(theta - theta_prev) <= tol * abs(theta)):
            break
        theta_prev = theta
        w /= beta
        v_prev, v = v, w
    return min(cap, theta * (1.0 + BOUND_MARGIN))
