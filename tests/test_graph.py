"""Graph container, Laplacian operators, and the spectral bound."""

import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gsdenoise
from gsdenoise.frame import PartitionOfUnity, exact_eigendecomposition
from gsdenoise.graph import (
    LaplacianOperator,
    SparseGraph,
    _assemble,
    _top_eigenvalue,
    build_graph,
    estimate_spectral_bound,
    from_csr,
    grid_graph,
    is_connected,
    laplacian,
    random_connected_graph,
    random_geometric_graph,
    read_edgelist,
    spectral_cap,
    write_edgelist,
)


def test_triangle_by_hand():
    g = build_graph([(0, 1), (1, 2), (0, 2)])
    assert g.n == 3 and g.m == 3
    assert np.array_equal(g.degrees, [2.0, 2.0, 2.0])
    assert np.array_equal(g.adj_matvec(np.array([1.0, 0, 0])), [0.0, 1.0, 1.0])


def test_duplicate_edges_collapse_by_summing():
    g = build_graph([(0, 1, 1.0), (1, 0, 0.5)])
    assert g.m == 1
    assert np.array_equal(g.weights, [1.5, 1.5])


def test_rejects_self_loops_and_bad_weights():
    with pytest.raises(ValueError, match="self-loop"):
        build_graph([(0, 0)])
    with pytest.raises(ValueError, match="weight"):
        build_graph([(0, 1, -2.0)])
    with pytest.raises(ValueError, match="weight"):
        build_graph([(0, 1, 0.0)])


@pytest.mark.parametrize("bad", ["inf", "nan", "-inf"])
def test_nonfinite_weights_rejected_at_every_entry_point(tmp_path, bad):
    w = float(bad)
    with pytest.raises(ValueError, match=rf"weight rejected: \(0, 1, {bad}\)"):
        build_graph([(0, 1, 1.0), (0, 1, w)])
    path = tmp_path / "g.txt"
    path.write_text(f"a b 1.0\nb c {bad}\n")
    with pytest.raises(ValueError, match=rf"'b', 'c', {bad}"):
        read_edgelist(path)
    offsets = np.array([0, 1, 3, 4], dtype=np.int64)
    indices = np.array([1, 0, 2, 1], dtype=np.int64)
    weights = np.array([1.0, 1.0, w, w])
    with pytest.raises(ValueError, match=rf"entry \(1, 2\) is {bad}"):
        from_csr(3, offsets, indices, weights)


def test_labels_densified_in_first_appearance_order():
    g = build_graph([("z", "a"), ("a", "mid")])
    assert g.labels == ["z", "a", "mid"]
    assert g.label_index() == {"z": 0, "a": 1, "mid": 2}


def test_from_csr_requires_symmetry():
    offsets = np.array([0, 1, 1], dtype=np.int64)
    indices = np.array([1], dtype=np.int64)
    weights = np.array([1.0])
    with pytest.raises(ValueError):
        from_csr(2, offsets, indices, weights)


@pytest.mark.parametrize("bad", [10 ** 9, 7, -5])
def test_column_indices_outside_the_graph_are_refused(bad):
    # the CSR kernel reads x at each stored index unchecked: 10^9 crashed
    # the process on the first product, 7 and -5 gave garbage degrees
    with pytest.raises(ValueError, match=r"column indices.*\[0, n\)"):
        SparseGraph(2, [0, 1, 2], [1, bad], [1.0, 1.0])


# a path 0 - 1 - 2 as (n, offsets, indices, weights), and malformed
# versions of it with the message each is refused with
_PATH = (3, [0, 1, 3, 4], [1, 0, 2, 1], [1.0, 1.0, 1.0, 1.0])
_MALFORMED = [
    ({"offsets": [0, 1, 3]}, "offsets must have length n \\+ 1"),
    ({"offsets": [1, 1, 3, 4]}, "offsets must start at 0 and end at nnz"),
    ({"offsets": [0, 1, 3, 3]}, "offsets must start at 0 and end at nnz"),
    ({"offsets": [0, 3, 1, 4]}, "offsets must be monotone"),
    ({"weights": [1.0, 1.0, 1.0]}, "indices and weights length mismatch"),
    ({"indices": [1, 0, 2, -1]}, r"column indices must lie in \[0, n\)"),
    ({"indices": [1, 0, 3, 1]}, r"column indices must lie in \[0, n\)"),
]


@pytest.mark.parametrize("itype", [np.int32, np.int64])
@pytest.mark.parametrize("change, message", _MALFORMED)
def test_malformed_arrays_refused_alike_in_either_index_dtype(itype, change,
                                                              message):
    n, offsets, indices, weights = _PATH
    arrays = {"offsets": offsets, "indices": indices, "weights": weights,
              **change}
    with pytest.raises(ValueError, match=f"^{message}$"):
        SparseGraph(n, np.array(arrays["offsets"], dtype=itype),
                    np.array(arrays["indices"], dtype=itype),
                    np.array(arrays["weights"]))


@pytest.mark.parametrize("itype", [np.int32, np.int64])
def test_index_arrays_of_either_dtype_are_stored_as_int32(itype):
    n, offsets, indices, weights = _PATH
    g = SparseGraph(n, np.array(offsets, dtype=itype),
                    np.array(indices, dtype=itype), np.array(weights))
    assert g.offsets.dtype == g.indices.dtype == np.int32
    assert g.offsets.tolist() == offsets and g.indices.tolist() == indices


def test_monotone_check_sees_offsets_a_difference_would_wrap():
    # int32 offsets 0, 2^31 - 1, -2^31, -1, 0: the one decrease wraps to
    # a difference of 1, and every difference would pass as an increase
    top = np.iinfo(np.int32)
    offsets = np.array([0, top.max, top.min, -1, 0], dtype=np.int32)
    with pytest.raises(ValueError, match="^offsets must be monotone$"):
        SparseGraph(4, offsets, np.empty(0, np.int32), np.empty(0))


def test_edgelist_round_trip(tmp_path):
    g = random_connected_graph(40, seed=9)
    path = tmp_path / "g.txt"
    write_edgelist(g, path)
    h = read_edgelist(path)
    assert h.n == g.n and h.m == g.m
    # reading densifies labels in file order, so compare up to that
    # relabeling; row summation order changes with it, hence the tolerance
    orig = np.array([int(s) for s in h.labels])
    x = np.random.default_rng(0).standard_normal(g.n)
    assert np.allclose(h.adj_matvec(x[orig]), g.adj_matvec(x)[orig],
                       rtol=1e-13, atol=1e-13)


def test_edgelist_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1\n0 1 not-a-number\n")
    with pytest.raises(ValueError, match="bad weight"):
        read_edgelist(path)


def test_grid_counts_and_degrees():
    g = grid_graph(4, 7)
    assert g.n == 28
    assert g.m == 4 * 6 + 7 * 3  # horizontal + vertical runs
    assert g.degrees.min() == 2.0 and g.degrees.max() == 4.0


def test_connectivity_predicate():
    assert is_connected(grid_graph(5, 5))
    assert not is_connected(build_graph([(0, 1), (2, 3)]))


def test_generators_produce_connected_graphs():
    for seed in range(5):
        assert is_connected(random_connected_graph(30, seed=seed))
        assert is_connected(random_geometric_graph(60, seed=seed))


def _reaches_every_node(g):
    """Reference connectivity: breadth-first search from node 0."""
    seen = np.zeros(g.n, dtype=bool)
    seen[0] = True
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for j in g.indices[g.offsets[i]:g.offsets[i + 1]]:
                if not seen[j]:
                    seen[j] = True
                    nxt.append(j)
        frontier = nxt
    return bool(seen.all())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 14), st.integers(0, 14)),
                min_size=1, max_size=20))
def test_is_connected_matches_breadth_first_search(pairs):
    records = [(u, v) for u, v in pairs if u != v]
    if not records:
        return
    g = build_graph(records)
    assert is_connected(g) == _reaches_every_node(g)


def test_isolated_node_disconnects():
    offsets = np.array([0, 1, 2, 2], dtype=np.int64)
    g = from_csr(3, offsets, np.array([1, 0]), np.array([1.0, 1.0]))
    assert not is_connected(g) and not _reaches_every_node(g)


def test_geometric_graph_same_under_reference_connectivity(monkeypatch):
    # the generator grows its radius until the graph is connected, so a
    # different connectivity answer would return a different graph
    got = [random_geometric_graph(200, seed=s).content_hash()
           for s in range(5)]
    monkeypatch.setattr(gsdenoise.graph, "is_connected", _reaches_every_node)
    assert got == [random_geometric_graph(200, seed=s).content_hash()
                   for s in range(5)]


# content hashes of random_geometric_graph(n, seed=s) as given by the
# generator that compared all n^2 squared distances against radius^2
GEOMETRIC_HASHES = {
    (500, 0): "68f6de637320ecd2", (300, 2): "e79374e919e555bc",
    (100, 2): "53339bc76e90dc50", (100, 0): "82d6c5467ed7e5b2",
    (90, 5): "0b66bc2d3c79490a", (80, 1): "64a4d7f3c8f078f6",
    (150, 6): "abd0ac3f493ec89e", (40, 9): "31524e5cefc4f028",
    (200, 0): "518db2992d808dea", (200, 1): "d179abfc090def56",
    (200, 2): "2bc5158345a6adc6", (200, 3): "4411daf428b6ecfc",
    (200, 4): "3ff5e8cd32967f38",
}


@pytest.mark.parametrize("n, seed", sorted(GEOMETRIC_HASHES))
def test_geometric_graph_matches_all_pairs_generator(n, seed):
    assert random_geometric_graph(n, seed=seed).content_hash() == \
        GEOMETRIC_HASHES[n, seed]


def test_geometric_graph_memory_is_linear():
    # all n^2 distances at this size would take gigabytes
    tracemalloc.start()
    try:
        g = random_geometric_graph(20000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert is_connected(g)
    assert peak < 100e6, peak


def test_geometric_graph_needs_two_nodes():
    with pytest.raises(ValueError, match="2 nodes"):
        random_geometric_graph(1)


def test_random_graph_weights_bounded_below():
    # merged parallel draws sum, so only the lower end is a hard bound
    g = random_connected_graph(50, seed=2)
    assert g.weights.min() >= 0.5
    u = random_connected_graph(50, seed=2, weighted=False)
    assert np.all(u.weights == np.round(u.weights))  # sums of unit draws
    assert u.weights.min() >= 1.0


def scalar_random_connected_graph(n, seed, weighted):
    """random_connected_graph with one generator call per tree parent."""
    rng = np.random.default_rng(seed)
    parents = np.array([rng.integers(0, i) for i in range(1, n)],
                       dtype=np.int64)
    eu = rng.integers(0, n, size=n)
    ev = rng.integers(0, n, size=n)
    keep = eu != ev
    r = np.concatenate([np.arange(1, n, dtype=np.int64), eu[keep]])
    c = np.concatenate([parents, ev[keep]])
    w = rng.uniform(0.5, 2.0, size=r.size) if weighted else np.ones(r.size)
    return _assemble(r, c, w, n, None)


@pytest.mark.parametrize("n", [2, 3, 50, 1000])
@pytest.mark.parametrize("weighted", [True, False])
def test_random_graph_tree_parents_drawn_as_one_per_call(n, weighted):
    for seed in range(5):
        assert (random_connected_graph(n, seed=seed, weighted=weighted)
                .content_hash()
                == scalar_random_connected_graph(n, seed, weighted)
                .content_hash())


def test_content_hash_is_computed_once(monkeypatch):
    g = grid_graph(20, 20)
    made = []
    sha256 = hashlib.sha256

    def counted(*args):
        made.append(args)
        return sha256(*args)

    monkeypatch.setattr(hashlib, "sha256", counted)
    first, second = g.content_hash(), g.content_hash()
    assert len(made) == 1 and first == second


def test_content_hash_is_that_of_int64_index_arrays():
    # the hashes of int64 index arrays, as they were stored before int32
    # ones, so that weight caches written then still hit
    assert grid_graph(20, 20).content_hash() == "1b633322aa098773"
    assert random_connected_graph(1000, seed=0).content_hash() == \
        "6eecd201d79e6fa8"


def test_content_hash_tracks_structure_and_weights():
    a = build_graph([(0, 1, 1.0), (1, 2, 1.0)])
    b = build_graph([(0, 1, 1.0), (1, 2, 2.0)])
    c = build_graph([(0, 1, 1.0), (1, 2, 1.0)])
    assert a.content_hash() != b.content_hash()
    assert a.content_hash() == c.content_hash()


@pytest.mark.parametrize("variant", ["unnormalized", "normalized"])
def test_laplacian_quadratic_form_nonnegative(variant):
    g = random_connected_graph(40, seed=5)
    L = laplacian(g, variant)
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.standard_normal(g.n)
        q = x @ L.matvec(x)
        assert q >= -1e-10 * (x @ x)


def test_random_walk_is_degree_scaled_unnormalized():
    g = random_connected_graph(35, seed=11)
    Lu = laplacian(g, "unnormalized")
    Lrw = laplacian(g, "random_walk")
    x = np.random.default_rng(3).standard_normal(g.n)
    want = Lu.matvec(x) / g.degrees
    got = Lrw.matvec(x)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_laplacian_rejects_isolated_nodes():
    offsets = np.array([0, 1, 2, 2], dtype=np.int64)
    indices = np.array([1, 0], dtype=np.int64)
    weights = np.array([1.0, 1.0])
    g = from_csr(3, offsets, indices, weights, labels=["a", "b", "lone"])
    with pytest.raises(ValueError, match="lone"):
        laplacian(g, "normalized")


def test_matvec_counter():
    L = laplacian(grid_graph(4, 4), "unnormalized")
    L.reset_matvec_count()
    x = np.ones(L.n)
    L.matvec(x)
    L.matvec(x)
    assert L.matvec_count == 2


def test_laplacian_records_what_its_bound_cost():
    g = random_connected_graph(40, seed=3)
    Lu = laplacian(g)
    assert Lu.bound_matvecs > 0 and Lu.bound_ms > 0
    assert Lu.matvec_count == 0
    # the normalized variants' bound is their cap 2, for no matvec
    for variant in ("normalized", "random_walk"):
        L = laplacian(g, variant)
        assert (L.lambda_ub, L.bound_matvecs, L.matvec_count) == (2.0, 0, 0)
    given = laplacian(g, lambda_ub=5.0)
    assert (given.bound_matvecs, given.bound_ms) == (0, 0.0)


@pytest.mark.parametrize("variant", ["unnormalized", "normalized", "random_walk"])
def test_spectral_bound_dominates_exact_spectrum(variant):
    # 400 graphs per variant: weighted and unweighted, and one in four a
    # tree, which is bipartite, so its normalized lambda_max is exactly 2
    rng = np.random.default_rng(17)
    for seed in range(400):
        n = int(rng.integers(5, 201))
        g = random_connected_graph(n, extra_edges=0 if seed % 4 == 0 else n,
                                   seed=seed, weighted=seed % 2 == 1)
        L = LaplacianOperator(g, variant)
        ub = estimate_spectral_bound(L, seed=seed)
        lam_max = exact_eigendecomposition(L).eigenvalues.max()
        cap = spectral_cap(g, variant)
        # slack for the dense solver, which may put an eigenvalue of
        # exactly 2 a rounding error above it
        assert lam_max <= ub * (1 + 1e-13), (seed, n)
        if variant != "unnormalized":
            assert ub == 2.0, (seed, n)
            continue
        assert ub <= cap, (seed, n)
        # the margin on the top Ritz value, a lower bound on lambda_max,
        # and the cap where it is lower
        assert ub <= 1.01 * lam_max * (1 + 1e-9), (seed, n)


def test_top_ritz_value_matches_dense_solver():
    # some off-diagonals exactly 0, so T splits into blocks
    rng = np.random.default_rng(1)
    for k in range(1, 80):
        a = 3 * rng.standard_normal(k)
        b = rng.random(k - 1) * (rng.random(k - 1) < 0.8)
        ref = np.linalg.eigvalsh(np.diag(a) + np.diag(b, -1))[-1]
        got = _top_eigenvalue(a.tolist(), b.tolist())
        assert got == pytest.approx(ref, rel=1e-13, abs=1e-13)


def test_grid_bound_is_the_cap_in_tens_of_matvecs():
    # lambda_max of the r x r grid is 4 + 4 cos(pi / r), so the Ritz value
    # reaches 8 / 1.01 within a few steps and the proven cap is returned
    for side, most in ((30, 25), (300, 20)):
        L = laplacian(grid_graph(side, side))
        assert L.lambda_ub == 8.0
        assert L.bound_matvecs <= most
        # 8 is 2^3, so four bands cover [0, 8]: J is 4, that of any bound
        # in (4, 8], such as the grids' lambda_max
        assert PartitionOfUnity.for_operator(L).J == 4


def test_spectral_bound_repr_independent_of_blas_threads():
    # lambda_ub enters the weight-cache fingerprint by repr, so a cache
    # written under one BLAS thread count must still match under another.
    # Only the unnormalized variant runs Lanczos, and on this graph it
    # converges below the cap (31.02 against 57.21), so the repr is that
    # of the Ritz value, not of the cap
    code = ("from gsdenoise.graph import (laplacian, random_connected_graph,"
            " spectral_cap)\n"
            "g = random_connected_graph(10 ** 5, seed=0)\n"
            "print(repr(laplacian(g).lambda_ub),"
            " repr(spectral_cap(g, 'unnormalized')))\n")
    src = str(Path(gsdenoise.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        outs.append(subprocess.run([sys.executable, "-c", code], env=env,
                                   capture_output=True, text=True,
                                   check=True, timeout=300).stdout)
    assert outs[0] == outs[1]
    ub, cap = map(float, outs[0].split())
    assert ub < cap


@pytest.mark.parametrize("variant", ["unnormalized"])
def test_bound_after_all_n_steps_keeps_the_margin(variant):
    # distinct weights on a triangle with a tail: five distinct eigenvalues,
    # lambda_max (1 + margin) under the cap (14.87 against 18.0), and a
    # tol this small is never met, so the loop runs its n steps and
    # returns the top Ritz value with the margin
    g = build_graph([(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0), (2, 3, 4.0),
                     (3, 4, 5.0)])
    L = LaplacianOperator(g, variant)
    lam_max = exact_eigendecomposition(L).eigenvalues.max()
    ub = estimate_spectral_bound(L, tol=1e-30)
    assert lam_max <= ub <= 1.01 * lam_max * (1 + 1e-9)
    assert ub < spectral_cap(g, variant)
    assert L.matvec_count == g.n
    with pytest.raises(ValueError, match="tol"):
        estimate_spectral_bound(L, tol=0.0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                min_size=1, max_size=25))
def test_adjacency_is_self_adjoint(pairs):
    records = [(u, v) for u, v in pairs if u != v]
    if not records:
        return
    g = build_graph(records)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(g.n)
    y = rng.standard_normal(g.n)
    assert np.isclose(y @ g.adj_matvec(x), x @ g.adj_matvec(y),
                      rtol=1e-10, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                min_size=1, max_size=25))
def test_degrees_are_adjacency_row_sums(pairs):
    records = [(u, v) for u, v in pairs if u != v]
    if not records:
        return
    g = build_graph(records)
    assert np.array_equal(g.degrees, g.adj_matvec(np.ones(g.n)))
