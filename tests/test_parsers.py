"""The two text parsers (edge list, signal file), fuzzed against
line-by-line reference readers kept here, and the weight cache's npz
fields against a field-by-field reader, with the graph it keeps.

Each reference is the line loop the module's parser replaced, so a
vectorised parser must return the same result bitwise or raise the same
exception with the same message on every drawn file.
"""

import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsdenoise.graph import (
    _TOKEN,
    _WIDE_SPACES,
    build_graph,
    file_sha256,
    from_csr,
    graph_edges,
    grid_graph,
    random_connected_graph,
    read_edgelist,
    write_edgelist,
)
from gsdenoise.signals import read_signal
from gsdenoise.sure import CACHE_KEYS, WeightEstimate, load_weights, \
    save_weights


def reference_read_edgelist(path):
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) == 2:
                records.append((parts[0], parts[1], 1.0))
            elif len(parts) == 3:
                try:
                    w = float(parts[2])
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: bad weight {parts[2]!r}") from None
                records.append((parts[0], parts[1], w))
            else:
                raise ValueError(f"{path}:{lineno}: expected 'u v [w]', "
                                 f"got {line!r}")
    return build_graph(records)


def reference_read_signal(path, graph=None):
    """The line loop, with a label given twice rejected at its second
    line."""
    header = {}
    bare = []
    labelled = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, val = body.partition("=")
                    header[key.strip()] = val.strip()
                continue
            if "," in line:
                label, _, val = line.partition(",")
                try:
                    labelled.append((lineno, label.strip(), float(val)))
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: bad value in {line!r}") from None
            else:
                try:
                    bare.append(float(line))
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: bad value in {line!r}") from None
    if labelled and bare:
        raise ValueError(f"{path}: mixed bare and label,value lines")
    if labelled:
        if graph is None:
            raise ValueError(
                f"{path}: label,value lines need a graph to resolve labels")
        index = graph.label_index()
        values = np.zeros(graph.n)
        seen = {}
        for lineno, label, val in labelled:
            if label not in index:
                raise ValueError(f"{path}: unknown node label {label!r}")
            if label in seen:
                raise ValueError(f"{path}:{lineno}: node label {label!r} "
                                 f"given twice, first on line {seen[label]}")
            seen[label] = lineno
            values[index[label]] = val
        return values, header
    values = np.asarray(bare, dtype=np.float64)
    if graph is not None and values.size != graph.n:
        raise ValueError(
            f"{path}: {values.size} values for a graph with {graph.n} nodes")
    return values, header


def outcome(read, *args):
    """What read(*args) gives: ("ok", result) or (exception type, message)."""
    try:
        return "ok", read(*args)
    except Exception as exc:
        return type(exc), str(exc)


def same_graph(g, h):
    return (g.n == h.n and g.labels == h.labels
            and g.offsets.tobytes() == h.offsets.tobytes()
            and g.indices.tobytes() == h.indices.tobytes()
            and g.weights.tobytes() == h.weights.tobytes()
            and g.content_hash() == h.content_hash())


def through_cache(path, g):
    """The graph read from path with the edges a weight cache written for
    g keeps, after a round trip through the cache file."""
    cache = path.with_name("w.npz")
    est = WeightEstimate(np.ones(g.n), g.n, 0, 1, "rademacher", 0, 10, True)
    save_weights(cache, est, graph=(file_sha256(path), graph_edges(g)))
    _, (sha256, edges) = load_weights(cache, return_graph=True)
    assert sha256 == file_sha256(path)
    return read_edgelist(path, edges)


def write_raw(path, text):
    """Write text as UTF-8 with its line endings untranslated."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# edge lists

# short labels are keyed as integers, longer ones as byte strings
labels = (st.text(alphabet="ab#é中0_", min_size=1, max_size=3)
          | st.text(alphabet="ab\x00", min_size=7, max_size=9))
floats = st.floats(min_value=1e-3, max_value=1e3).map(repr)
weights = (floats | floats | floats
           | st.sampled_from(["1.0", "2", "1e3", "nan", "inf", "-inf", "-1",
                              "0", "-0.0", "1_0", "1__0", "junk", "٣",
                              "+.5", "Infinity", "1e-400", "0x1",
                              "0.1000000000000000055511151231257827"]))
spaces = st.sampled_from([" ", "  ", "\t", " \t ", "\xa0", "\u2003",
                          "\x1c", "\x0b"])
# mostly 2 and 3 tokens, so that most files read
edges = st.builds(lambda u, v, w, size: [u, v, *w][:size], labels, labels,
                  st.lists(weights, min_size=2, max_size=2),
                  st.sampled_from([2] * 6 + [3] * 8 + [1, 4]))
comments = st.text(alphabet="ab #\t=", max_size=6).map(lambda s: "#" + s)
blanks = st.sampled_from(["", " ", "\t", "\xa0", "\x1c  "])


@st.composite
def edge_files(draw):
    lines = []
    for kind in draw(st.lists(st.sampled_from("eeeecb"), max_size=12)):
        if kind == "c":
            line = draw(comments)
        elif kind == "b":
            line = draw(blanks)
        else:
            tokens = draw(edges)
            line = tokens[0]
            for token in tokens[1:]:
                line += draw(spaces) + token
        lead = draw(st.sampled_from(["", " ", "\t"]))
        trail = draw(st.sampled_from(["", " ", "  ", "\t", "\u2003"]))
        lines.append(lead + line + trail)
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@settings(max_examples=400, deadline=None)
@given(edge_files())
def test_edgelist_matches_line_reader(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "g.txt"
    write_raw(path, text)
    got, want = outcome(read_edgelist, path), outcome(reference_read_edgelist,
                                                      path)
    if want[0] == "ok":
        assert got[0] == "ok", got
        assert same_graph(got[1], want[1])
        assert same_graph(through_cache(path, got[1]), got[1])
    else:
        assert got == want


@pytest.mark.parametrize("text", [
    "a b\rb c\r\nc a 2.5\n",           # a lone \r ends a line
    "a b\n# c d\nb c\n  #x y z w\n",  # comments anywhere
    "z a\na m\n",                      # labels by first appearance
    "a b 1\nb c 1 2\nc d junk\n",     # a malformed line before a bad weight
    "a b junk\nb c 1 2\n",            # a bad weight before a malformed line
    "a\xa0b 2\n",                      # non-ASCII whitespace splits
    "a b\x1c2\n",
    "a\x00 b\x00 1\na b\n",            # NUL is part of a label
    "abcdefgh abcdefg 1\nabcdefg abcdefgh\x00 2\n",
    "a b ٣\n",                         # float() reads digits outside ASCII
    "a b 1\x00\n",
    "a a nan\n",                       # a self-loop is named first
    "a b 0\nc c\n",
    "# only comments\n\n",
    "",
])
def test_edgelist_edge_cases_match_line_reader(tmp_path, text):
    path = tmp_path / "g.txt"
    write_raw(path, text)
    got, want = outcome(read_edgelist, path), outcome(reference_read_edgelist,
                                                      path)
    if want[0] == "ok":
        assert same_graph(got[1], want[1])
    else:
        assert got == want


def test_whitespace_tables_match_str_split():
    wide = {c for c in range(128, sys.maxunicode + 1) if chr(c).isspace()}
    assert set(_WIDE_SPACES) == wide
    assert [b for b in range(128) if not _TOKEN[b]] == [
        b for b in range(128) if chr(b).isspace()]
    assert all(_TOKEN[128:])


def test_edgelist_files_read_back_identically(tmp_path):
    for g in (random_connected_graph(3000, seed=4),
              random_connected_graph(500, seed=2, weighted=False),
              grid_graph(60, 60)):
        path = tmp_path / "g.txt"
        write_edgelist(g, path)
        assert same_graph(read_edgelist(path), reference_read_edgelist(path))


@pytest.mark.parametrize("tail", ["", "x" * 1000 + " 0 1." + "0" * 1000])
def test_edgelist_reader_peak_memory(tmp_path, tail):
    # the reader's own passes stay below the final assembly's transient
    # of about 5 file sizes, also when one label and one weight are long;
    # the line loop peaked at 15
    path = tmp_path / "g.txt"
    write_edgelist(random_connected_graph(2 * 10 ** 4, seed=1), path)
    with open(path, "a") as fh:
        fh.write(tail)
    tracemalloc.start()
    try:
        read_edgelist(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * path.stat().st_size, peak / path.stat().st_size


@pytest.mark.parametrize("records, bad", [
    ([("#a", "b"), ("b", "c")], "#a"),  # would read back as a comment
    ([((0, 1), 2), (2, 3)], (0, 1)),    # would read back as two tokens
    ([("a", ""), ("b", "c")], ""),
    ([("a", "b\u2003")], "b\u2003"),
])
def test_write_edgelist_refuses_labels_it_cannot_read_back(tmp_path, records,
                                                           bad):
    g = build_graph(records)
    path = tmp_path / "g.txt"
    with pytest.raises(ValueError, match=re.escape(f"label {bad!r}")):
        write_edgelist(g, path)
    assert not path.exists()


@pytest.mark.parametrize("records, nodes", [
    ([(1, 2), ("1", 3)], 4),    # would read back with 3 nodes
    ([(1, "1"), ("1", 2)], 3),  # would read back as a self-loop
])
def test_write_edgelist_refuses_labels_whose_str_collide(tmp_path, records,
                                                         nodes):
    g = build_graph(records)
    assert g.n == nodes
    path = tmp_path / "g.txt"
    with pytest.raises(ValueError, match=re.escape(
            "labels 1 and '1' cannot be read back from an edge list: both "
            "are written as '1'")):
        write_edgelist(g, path)
    assert not path.exists()


# ---------------------------------------------------------------------------
# signal files

GRAPH = build_graph([("a", "b"), ("b", "c"), ("c", "d")])
values = (st.floats(allow_nan=False, width=64).map(repr)
          | st.sampled_from(["1", "nan", "-inf", "1_0", "٣", "junk", "",
                             "1,5", " 2 ", "1e999"]))


@st.composite
def signal_files(draw):
    labelled = draw(st.booleans())
    lines = []
    for kind in draw(st.lists(st.sampled_from("vvvvhcbx"), max_size=8)):
        if kind == "h":
            key = draw(st.sampled_from(["sigma", "seed", " sigma "]))
            lines.append(f"# {key} = {draw(values)}")
        elif kind == "c":
            lines.append(draw(st.sampled_from(["#", "# note", "#=", "  # a"])))
        elif kind == "b":
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
        elif labelled != (kind == "x"):
            label = draw(st.sampled_from(["a", "b", "c", "d", " a ", "zz"]))
            lines.append(f"{label},{draw(values)}")
        else:
            lines.append(draw(values))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@settings(max_examples=400, deadline=None)
@given(signal_files(), st.sampled_from([None, GRAPH]))
def test_signal_matches_line_reader(tmp_path_factory, text, graph):
    path = tmp_path_factory.mktemp("fuzz") / "s.txt"
    write_raw(path, text)
    got, want = outcome(read_signal, path, graph), outcome(
        reference_read_signal, path, graph)
    if want[0] == "ok":
        assert got[0] == "ok", got
        assert got[1][0].tobytes() == want[1][0].tobytes()
        assert list(got[1][1].items()) == list(want[1][1].items())
    else:
        assert got == want


# ---------------------------------------------------------------------------
# weight caches

FIELDS = {"n": 3, "J": 1, "K": 4, "jackson": 1, "N": 2,
          "distribution": "rademacher", "seed": 0, "pou": "p",
          "variant": "v", "graph_hash": "h"}
# values of each kind a field may take, right or wrong for it
SCALARS = st.sampled_from([0, 1, 2, -1, 1.0, True, "1", "", "rademacher",
                           b"h"])


@st.composite
def cache_arrays(draw):
    """The arrays of an npz weight cache: its fields, one of them another
    value in half the files and one left out in a quarter, and n (J + 1)
    weights, give or take one, in one of three dtypes, plus a key the
    reader ignores in some files."""
    arrays = dict(FIELDS)
    if draw(st.booleans()):
        arrays[draw(st.sampled_from(sorted(FIELDS)))] = draw(SCALARS)
    size = draw(st.sampled_from([6, 6, 6, 5, 7]))
    arrays["diag"] = np.array(
        draw(st.lists(st.sampled_from([0.5, 1.25, 0.0, -0.5, np.nan, np.inf]),
                      min_size=size, max_size=size)),
        dtype=draw(st.sampled_from([np.float64, np.float64, np.float32,
                                    np.float16])))
    if not draw(st.integers(0, 3)):
        del arrays[draw(st.sampled_from(sorted(arrays)))]
    if draw(st.booleans()):
        arrays["lambda_ub"] = 2.5
    return {key: np.asarray(value) for key, value in arrays.items()}


def reference_load_weights(path, arrays):
    """The estimate the arrays hold, field by field, or the refusal."""
    for key in CACHE_KEYS:
        if key not in arrays:
            raise ValueError(f"weight cache {path} missing field {key!r}")
        value = arrays[key].item()
        kind = type(FIELDS[key])
        flag = key == "jackson"
        if type(value) is not kind or flag and value not in (0, 1):
            want = ("0 or 1" if flag else "a string" if kind is str
                    else "an integer")
            raise ValueError(f"weight cache {path}: {key} must be {want}, "
                             f"got {value!r}")
    if "diag" not in arrays:
        raise ValueError(f"weight cache {path} missing field 'diag'")
    if arrays["diag"].dtype != np.float64:
        raise ValueError(f"weight cache {path}: diag must be a float64 "
                         "vector")
    meta = {key: arrays[key].item() for key in CACHE_KEYS}
    meta["jackson"] = bool(meta["jackson"])
    try:
        return WeightEstimate(arrays["diag"], **meta)
    except ValueError as exc:
        raise ValueError(f"weight cache {path}: {exc}") from None


@settings(max_examples=300, deadline=None)
@given(cache_arrays())
def test_weight_cache_matches_field_reader(tmp_path_factory, arrays):
    path = tmp_path_factory.mktemp("fuzz") / "w.txt"
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    got = outcome(load_weights, path)
    want = outcome(reference_load_weights, path, arrays)
    if want[0] == "ok":
        assert got[0] == "ok", got
        assert got[1].diag.tobytes() == want[1].diag.tobytes()
        assert got[1].fingerprint() == want[1].fingerprint()
        assert got[1].jackson is want[1].jackson
    else:
        assert got == want


# ---------------------------------------------------------------------------
# the graph a weight cache keeps

def _cached_case(tmp_path, name):
    path = tmp_path / "g.txt"
    if name == "random":
        write_edgelist(random_connected_graph(2000, seed=6), path)
    elif name == "hand-written":
        # string labels, a repeated edge, comment and blank lines, and
        # lines of 2 tokens
        path.write_text("# a hand-written graph\n\nparis lyon 2.5\n"
                        "lyon nice\n  # inland\nnice paris 0.5\n\n"
                        "lyon paris 1.25\ngenève lyon\n")
    else:
        # one edge three times in mixed directions: summed in one order for
        # both of its entries, the adjacency is exactly symmetric
        path.write_text("a b 0.1\nb a 0.3\na b 0.7\nb c\n")
    return path


@pytest.mark.parametrize("case", ["random", "hand-written", "triple-edge"])
def test_cached_graph_is_bitwise_the_parsed_one(tmp_path, case):
    path = _cached_case(tmp_path, case)
    parsed = read_edgelist(path)
    cached = through_cache(path, parsed)
    assert same_graph(cached, parsed)
    for name in ("offsets", "indices", "weights"):
        assert getattr(cached, name).dtype == getattr(parsed, name).dtype
    assert parsed.offsets.dtype == np.int32
    assert all(type(label) is str for label in cached.labels)
    # symmetric by construction, as from_csr checks it
    from_csr(parsed.n, parsed.offsets, parsed.indices, parsed.weights)


def test_parsed_triple_edge_sums_in_one_order():
    # b a 0.3 between two a b lines: the entry (b, a) once summed
    # 0.3 + 0.1 + 0.7 = 1.1 and (a, b) 0.1 + 0.7 + 0.3 = 1.0999999999999999
    g = build_graph([("a", "b", 0.1), ("b", "a", 0.3), ("a", "b", 0.7)])
    assert g.weights.tolist() == [(0.1 + 0.3) + 0.7] * 2


def test_cached_graph_load_peaks_no_higher_than_the_parse(tmp_path):
    path = tmp_path / "g.txt"
    write_edgelist(random_connected_graph(2 * 10 ** 4, seed=1), path)
    g = read_edgelist(path)
    cache = tmp_path / "w.npz"
    est = WeightEstimate(np.ones(g.n), g.n, 0, 1, "rademacher", 0, 10, True)
    save_weights(cache, est, graph=(file_sha256(path), graph_edges(g)))
    del g, est

    def peak(load):
        tracemalloc.start()
        try:
            load()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    parsed = peak(lambda: read_edgelist(path))
    cached = peak(lambda: read_edgelist(
        path, load_weights(cache, return_graph=True)[1][1]))
    assert cached <= parsed, (cached, parsed)
