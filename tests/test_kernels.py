"""The Laplacian operator and its one kernel, scipy's CSR product."""

import contextlib
import importlib.util
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse import csr_array

import gsdenoise
from gsdenoise import _kernels, graph
from gsdenoise._kernels import (COO, CSR, coo_matvec, csr_matvec,
                                csr_scale_columns, csr_scale_rows)
from gsdenoise.cli import main
from gsdenoise.graph import (
    VARIANTS,
    LaplacianOperator,
    from_csr,
    grid_graph,
    laplacian,
    random_connected_graph,
    spectral_cap,
    write_edgelist,
)
from gsdenoise.signals import write_signal
from oracles import grid_graph_reference


def _dense_laplacian(g, variant):
    W = g.to_dense_adjacency()
    d = W.sum(axis=1)
    if variant == "unnormalized":
        return np.diag(d) - W
    if variant == "normalized":
        isd = 1.0 / np.sqrt(d)
        return np.eye(g.n) - isd[:, None] * W * isd[None, :]
    return np.eye(g.n) - W / d[:, None]


def _close(got, want, rel=1e-12):
    return np.linalg.norm(got - want) <= rel * np.linalg.norm(want)


def _held_step(L):
    """The matrix of L's step as L holds it, dense: the nonzero entries of
    its shifted diagonal, and its off-diagonal weights scaled as the step
    scales x."""
    d, (weights, post) = L._step_terms, L._step
    M = csr_array((weights.data, weights.indices, weights.indptr),
                  shape=weights.shape).toarray()
    if post is not None:
        M *= post
    M[d.row, d.col] += d.data
    return M


@pytest.mark.parametrize("variant", VARIANTS)
def test_matvec_matches_dense_laplacian(variant):
    g = random_connected_graph(73, seed=1)
    L = laplacian(g, variant)
    x = np.random.default_rng(0).standard_normal(g.n)
    assert _close(L.matvec(x), _dense_laplacian(g, variant) @ x)


@pytest.mark.parametrize("variant", VARIANTS)
def test_chebyshev_step_matches_dense_shifted_operator(variant):
    g = random_connected_graph(73, seed=1)
    L = laplacian(g, variant)
    ub = L.lambda_ub
    step = 2.0 * ((2.0 / ub) * _dense_laplacian(g, variant) - np.eye(g.n))
    rng = np.random.default_rng(2)
    x, prev = rng.standard_normal(g.n), rng.standard_normal(g.n)
    want = step @ x - prev
    # the zero-copy step, then the step on the assembled matrix
    for steps in (contextlib.nullcontext(), L.assembled()):
        with steps:
            assert _close(L.matvec(x, prev=prev, step=True), want)
            assert _close(L.matvec(x, step=True), step @ x)
            # the recurrences write the step over its own inputs
            for alias in ("x", "prev"):
                xa, pa = x.copy(), prev.copy()
                out = xa if alias == "x" else pa
                assert L.matvec(xa, out=out, prev=pa, step=True) is out
                assert _close(out, want)


@pytest.mark.parametrize("variant", VARIANTS)
def test_step_matrix_is_the_shifted_operator_without_zeros(variant):
    g = grid_graph(7, 9)
    ub = spectral_cap(g, variant)
    L = laplacian(g, variant, lambda_ub=ub)
    step = 2.0 * ((2.0 / ub) * _dense_laplacian(g, variant) - np.eye(g.n))
    for steps in (contextlib.nullcontext(), L.assembled()):
        with steps:
            assert np.allclose(_held_step(L), step, rtol=0, atol=1e-15)
            weights = L._step[0]
            assert weights.indices.dtype == weights.indptr.dtype == np.int32
    d = L._step_terms
    assert np.all(d.data != 0) and np.array_equal(d.row, d.col)
    # on [0, 8] the diagonal of a degree-4 node is 2 (4/8) 4 - 2 = 0, and
    # on [0, 2] every diagonal entry of the normalized variants is 0
    kept = np.sum(g.degrees != 4) if variant == "unnormalized" else 0
    assert d.data.size == kept


def test_assembled_context_drops_the_matrix_on_exit():
    # the unnormalized context's scaled weights are its own copy, dropped
    # on exit, also when the block raises
    L = laplacian(grid_graph(4, 5))
    outside = L._step
    x = np.ones(L.n)
    with pytest.raises(RuntimeError):
        with L.assembled():
            assert L._step is not outside
            raise RuntimeError
    assert L._step is outside
    with L.assembled():
        weights, post = L._step
        assert post is None
        assert not np.shares_memory(weights.data, L.graph.weights)
        assert _close(L.matvec(x, step=True), _held_step(L) @ x)
    assert L._step is outside


def test_nested_assembled_context_reuses_an_open_matrix():
    L = laplacian(grid_graph(4, 5))
    outside = L._step
    with L.assembled():
        outer = L._step
        with L.assembled():
            assert L._step is outer
        assert L._step is outer
    assert L._step is outside


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_operator_is_built_with_its_bound(variant):
    # the constructor sets the bound as laplacian() does, so no operator
    # is without one, and the counters are not constructor arguments
    g = random_connected_graph(40, seed=3)
    L, want = LaplacianOperator(g, variant), laplacian(g, variant)
    assert repr(L.lambda_ub) == repr(want.lambda_ub)
    assert L.bound_matvecs == want.bound_matvecs
    assert (L.bound_matvecs > 0) == (variant == "unnormalized")
    assert L.matvec_count == 0
    x = np.random.default_rng(6).standard_normal(g.n)
    assert np.array_equal(L.matvec(x, step=True), want.matvec(x, step=True))
    for counter in ("matvec_count", "bound_matvecs", "bound_ms"):
        with pytest.raises(TypeError, match=counter):
            LaplacianOperator(g, variant, **{counter: 0})


@pytest.mark.parametrize("itype", [np.int32, np.int64])
def test_csr_matvec_adds_into_out(itype):
    g = random_connected_graph(40, seed=3)
    A = g.adjacency
    A = csr_array((A.data, A.indices.astype(itype), A.indptr.astype(itype)),
                  shape=A.shape)
    assert A.indices.dtype == itype
    rng = np.random.default_rng(5)
    x, out0 = rng.standard_normal(g.n), rng.standard_normal(g.n)
    out = out0.copy()
    assert csr_matvec(A, x, out) is out
    assert _close(out, A @ x + out0, rel=1e-15)
    assert _close(csr_matvec(A, x), A @ x, rel=0)
    # the COO kernel, over the same entries with the same index dtype
    rows = np.repeat(np.arange(g.n, dtype=itype), np.diff(A.indptr))
    out = out0.copy()
    assert coo_matvec(COO(A.data, rows, A.indices, A.shape), x, out) is out
    assert _close(out, A @ x + out0, rel=1e-15)


def _bad_vectors(case):
    """x and out of length 30, one of them made unfit for the kernel."""
    x, out = np.ones(30), np.zeros(30)
    if case == "short x":
        x = x[:-1]
    elif case == "long out":
        out = np.zeros(31)
    elif case == "float32 x":
        x = x.astype(np.float32)
    elif case == "int out":
        out = out.astype(np.int64)
    elif case == "strided out":
        out = np.zeros(60)[::2]
    elif case == "strided x":
        x = np.ones(60)[::2]
    elif case == "read-only out":
        out.flags.writeable = False
    elif case == "out is x":
        out = x
    else:
        x = [1.0] * 30
    return x, out


_BAD_CASES = ["short x", "long out", "float32 x", "int out", "strided out",
              "strided x", "read-only out", "out is x", "list x"]


# the COO kernel's wrapper makes the same checks, on the same cases
@pytest.mark.parametrize("kernel, case", [
    *(pytest.param("csr", case, id=case) for case in _BAD_CASES),
    *(pytest.param("coo", case, id=f"coo {case}") for case in _BAD_CASES),
])
def test_csr_matvec_rejects_what_the_raw_kernel_would_overrun(kernel, case):
    A = random_connected_graph(30, seed=2).adjacency
    x, out = _bad_vectors(case)
    with pytest.raises(ValueError):
        if kernel == "csr":
            csr_matvec(A, x, out)
        else:
            coo_matvec(A.tocoo(), x, out)


def _record(g):
    return CSR(g.weights, g.indices, g.offsets, (g.n, g.n))


@pytest.mark.parametrize("form", ["scipy", "record", "coo"])
@pytest.mark.parametrize("case", ["short x", "float32 x", "strided x",
                                  "list x"])
def test_csr_matvec_into_a_new_array_rejects_a_bad_x(case, form):
    g = random_connected_graph(30, seed=2)
    x, _ = _bad_vectors(case)
    with pytest.raises(ValueError, match="x must be"):
        if form == "coo":
            coo_matvec(g.adjacency.tocoo(), x)
        else:
            csr_matvec(g.adjacency if form == "scipy" else _record(g), x)


def test_csr_matvec_takes_a_scipy_array_or_the_record():
    # scipy's A @ x is the same kernel, adding into a zero-filled vector
    g = random_connected_graph(40, seed=3)
    x = np.random.default_rng(7).standard_normal(g.n)
    want = g.adjacency @ x
    assert np.array_equal(csr_matvec(g.adjacency, x), want)
    assert np.array_equal(csr_matvec(_record(g), x), want)
    assert np.array_equal(g.adj_matvec(x), want)


def test_missing_kernel_names_the_directory_searched(tmp_path, monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.sparse._sparsetools")
    monkeypatch.setattr(importlib.util, "find_spec", lambda name:
                        SimpleNamespace(submodule_search_locations=[
                            str(tmp_path)]))
    with pytest.raises(ImportError, match=str(tmp_path / "sparse")):
        _kernels._load_sparsetools()


def test_matvec_counts_plain_and_step_applications_alike():
    L = laplacian(grid_graph(4, 4), "unnormalized")
    L.reset_matvec_count()
    x = np.ones(L.n)
    L.matvec(x)
    L.matvec(x, prev=x, step=True)
    assert L.matvec_count == 2


def test_refused_matvec_is_not_counted():
    L = laplacian(grid_graph(4, 5), "unnormalized")
    with pytest.raises(ValueError, match="length 20"):
        L.matvec(np.ones(3))
    assert L.matvec_count == 0
    # nor inside assembled()
    with L.assembled():
        with pytest.raises(ValueError, match="length 20"):
            L.matvec(np.ones(3), step=True)
    assert L.matvec_count == 0


def test_step_refuses_a_bound_below_the_largest_diagonal_entry():
    # the grid's top degree is 4, and each L_ii is a Rayleigh quotient, so
    # a bound of 3 is below lambda_max: the recurrence would grow without
    # limit (coefficients of order 1e77 at K = 100)
    g = grid_graph(4, 5)
    L = laplacian(g, lambda_ub=3.0)
    x = np.random.default_rng(4).standard_normal(g.n)
    refused = (r"^lambda_ub 3\.0 is below the largest diagonal entry of L, "
               r"4\.0, so below its largest eigenvalue$")
    with pytest.raises(ValueError, match=refused):
        gsdenoise.sgwt_forward_fast(L, x, gsdenoise.PartitionOfUnity(
            "smooth", 2.0, 3.0))
    with pytest.raises(ValueError, match=refused):
        L.matvec(x, step=True)
    assert L.matvec_count == 0
    # the plain product never reads the bound
    assert _close(L.matvec(x), _dense_laplacian(g, "unnormalized") @ x)
    # at the bound itself every shifted diagonal entry is at most 2: on a
    # star of 5 leaves, whose top edge quotient, (5 + 1) / 2 + 1 = 4, is
    # below its top diagonal entry (on the grid, 5 is above 4)
    star = graph.build_graph([(0, leaf) for leaf in range(1, 6)])
    assert laplacian(star, lambda_ub=5.0)._step_terms.data.max() == 2.0


def test_step_refuses_a_bound_below_an_edge_rayleigh_quotient():
    # every L_ii of the normalized grid is 1, so a bound of 1 passes the
    # diagonal check; the quotient of (e_i + e_j) / sqrt(2) at a corner's
    # edge is 1 + 1 / sqrt(6), and the forward reached 1e68 at this bound
    g = grid_graph(4, 5)
    x = np.random.default_rng(4).standard_normal(g.n)
    for variant in ("normalized", "random_walk"):
        L = laplacian(g, variant, lambda_ub=1.0)
        refused = (r"^lambda_ub 1\.0 is below 1\.408248290463863\d*, the "
                   r"largest Rayleigh quotient of \(e_i \+- e_j\) / "
                   r"sqrt\(2\) over the edges \(i, j\), so below the "
                   r"largest eigenvalue of L$")
        with pytest.raises(ValueError, match=refused):
            gsdenoise.sgwt_forward_fast(
                L, x, gsdenoise.PartitionOfUnity.for_operator(L))
        with pytest.raises(ValueError, match=refused):
            L.matvec(x, step=True)
        assert L.matvec_count == 0
        # the plain product never reads the bound
        assert _close(L.matvec(x), _dense_laplacian(g, variant) @ x)
    # the unnormalized grid's top quotient is 4 + 1 at two adjacent
    # interior nodes, above its largest diagonal entry 4
    L = laplacian(g, lambda_ub=4.5)
    with pytest.raises(ValueError, match=r"^lambda_ub 4\.5 is below 5\.0, "):
        L.matvec(x, step=True)


@pytest.mark.parametrize("make", [lambda: grid_graph(6, 7),
                                  lambda: random_connected_graph(120, seed=6)])
@pytest.mark.parametrize("variant", VARIANTS)
def test_edge_quotient_is_the_dense_maximum(make, variant):
    g = make()
    L = _dense_laplacian(g, "normalized" if variant == "random_walk"
                         else variant)
    i, j = np.nonzero(g.to_dense_adjacency())
    want = np.max((L[i, i] + L[j, j]) / 2 + np.abs(L[i, j]))
    assert graph._top_edge_quotient(g, variant) == pytest.approx(want,
                                                                 rel=1e-14)
    # a bound just above both checks' values passes, one just below the
    # larger is refused
    top = max(want, np.max(np.diag(L)))
    laplacian(g, variant, lambda_ub=top * (1 + 1e-12))._step_terms
    with pytest.raises(ValueError, match="so below"):
        laplacian(g, variant, lambda_ub=top * (1 - 1e-12))._step_terms


@pytest.mark.parametrize("make, lanczos", [
    (lambda: grid_graph(30, 40), False),
    (lambda: random_connected_graph(10 ** 4, seed=0), True)])
@pytest.mark.parametrize("variant", VARIANTS)
def test_estimated_and_capped_bounds_pass_the_step_checks(make, lanczos,
                                                          variant):
    # the grid at its cap 8, every variant at the cap 2, and Lanczos's
    # bound on the unnormalized random graph, below its cap, where the
    # edge quotient is taken
    L = laplacian(make(), variant)
    below_cap = L.lambda_ub < spectral_cap(L.graph, variant)
    assert below_cap == (lanczos and variant == "unnormalized")
    assert L._step_terms.data.max(initial=-2.0) <= 2.0


def _record_dense(A):
    return csr_array((A.data, A.indices, A.indptr), shape=A.shape).toarray()


@pytest.mark.parametrize("itype", [np.int32, np.int64])
def test_csr_scalings_match_diagonal_products(itype):
    g = random_connected_graph(40, seed=3)
    A = CSR(g.weights.copy(), g.indices.astype(itype),
            g.offsets.astype(itype), (g.n, g.n))
    v = np.random.default_rng(8).uniform(0.5, 2.0, g.n)
    dense = g.to_dense_adjacency()
    assert csr_scale_rows(A, v) is A
    assert np.array_equal(_record_dense(A), v[:, None] * dense)
    csr_scale_columns(A, v)
    assert np.array_equal(_record_dense(A), v[:, None] * dense * v[None, :])


@pytest.mark.parametrize("scale", [csr_scale_rows, csr_scale_columns])
@pytest.mark.parametrize("case", ["short x", "float32 x", "strided x",
                                  "list x", "read-only entries"])
def test_csr_scalings_reject_a_bad_scale_or_matrix(scale, case):
    g = random_connected_graph(30, seed=2)
    A = _record(g)._replace(data=g.weights.copy())
    v, _ = _bad_vectors(case)
    if case == "read-only entries":
        A.data.flags.writeable = False
    before = A.data.copy()
    with pytest.raises(ValueError):
        scale(A, v)
    assert np.array_equal(A.data, before)


def test_empty_rows_contribute_zero():
    # node 2 is isolated: the product must still emit a full-length output
    offsets = np.array([0, 1, 2, 2], dtype=np.int64)
    indices = np.array([1, 0], dtype=np.int64)
    weights = np.array([2.0, 2.0])
    g = from_csr(3, offsets, indices, weights)
    x = np.array([1.0, 10.0, 100.0])
    assert np.array_equal(g.adj_matvec(x), [20.0, 2.0, 0.0])


def test_adjacency_shares_the_graph_arrays():
    # a copy would hold one more index and one more weight per stored entry
    g = random_connected_graph(50, seed=4)
    A = g.adjacency
    assert np.shares_memory(A.data, g.weights)
    assert np.shares_memory(A.indices, g.indices)
    assert np.shares_memory(A.indptr, g.offsets)


def test_laplacian_holds_at_most_two_vectors():
    laplacian(grid_graph(3, 3))  # loads the kernel outside the trace
    g = grid_graph(300, 300)
    tracemalloc.start()
    try:
        L = laplacian(g)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert L.n == g.n
    assert held <= 2 * 8 * g.n


def test_grid_graph_holds_at_most_six_and_a_half_vectors():
    # int32 offsets and indices, 4 + 4 bytes per node and per stored entry,
    # and float64 weights: 6.48 vectors, against 8.97 with int64 indices
    g = grid_graph(3, 3)
    tracemalloc.start()
    try:
        g = grid_graph(300, 300)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert g.indices.dtype == g.offsets.dtype == np.int32
    assert held <= 6.5 * 8 * g.n


def test_grid_graph_build_peaks_at_most_seven_and_a_half_vectors():
    # the boundary flags, the offsets, the node numbers, the four int32
    # candidates per node and the taken indices, then the weights: 6.6
    # vectors measured, against 32.9 for an int64 edge list sorted by
    # np.lexsort
    grid_graph(3, 3)
    tracemalloc.start()
    try:
        g = grid_graph(300, 300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.5 * 8 * g.n


@pytest.mark.parametrize("shape", [(0, 3), (1, 1), (1, 7), (7, 1), (2, 2),
                                   (3, 5), (30, 40), (300, 300)])
def test_grid_graph_is_the_edge_list_construction(shape):
    g, want = grid_graph(*shape), grid_graph_reference(*shape)
    for got, ref in ((g.offsets, want.offsets), (g.indices, want.indices),
                     (g.weights, want.weights)):
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)
    assert g.content_hash() == want.content_hash()
    if shape == (300, 300):
        assert g.content_hash() == "eeafbcab8f855b95"


@pytest.mark.parametrize("variant", VARIANTS)
def test_index_arrays_past_the_int32_range_stay_int64(monkeypatch, variant):
    g = random_connected_graph(300, seed=2)
    assert g.indices.dtype == g.offsets.dtype == np.int32
    # a bound below n + nnz stands for graphs with 2^31 entries
    monkeypatch.setattr(graph, "INT32_BOUND", g.n + g.indices.size)
    wide = graph.SparseGraph(g.n, g.offsets, g.indices, g.weights)
    assert wide.indices.dtype == wide.offsets.dtype == np.int64
    assert wide.content_hash() == g.content_hash()
    rng = np.random.default_rng(3)
    x, prev = rng.standard_normal((2, g.n))
    L, W = laplacian(g, variant), laplacian(wide, variant)
    for steps in ((contextlib.nullcontext(), contextlib.nullcontext()),
                  (L.assembled(), W.assembled())):
        with steps[0], steps[1]:
            assert L.matvec(x, prev=prev, step=True).tobytes() == \
                W.matvec(x, prev=prev, step=True).tobytes()
    assert L.matvec(x).tobytes() == W.matvec(x).tobytes()
    # no step, in assembled() or out of it, nor the plain product, copies
    # the graph's offsets or indices, of either dtype
    read = []

    def kernel(A, x, out=None):
        read.append((A.indices, A.indptr))
        return csr_matvec(A, x, out)

    monkeypatch.setattr(graph, "csr_matvec", kernel)
    for op in (L, W):
        read.clear()
        op.matvec(x)
        op.matvec(x, prev=prev, step=True)
        with op.assembled():
            op.matvec(x, prev=prev, step=True)
        assert len(read) == 3
        for indices, indptr in read:
            assert indices is op.graph.indices and indptr is op.graph.offsets


def test_normalized_step_matrix_shares_the_graph_index_arrays():
    # at the cap 2 every shifted diagonal entry is 2 * 1 - 2 = 0, and the
    # operator holds its weights scaled for the step: so every step is one
    # CSR product over the graph's pattern, and assembled() makes nothing
    g = random_connected_graph(500, seed=1)
    for variant in ("normalized", "random_walk"):
        L = laplacian(g, variant)
        outside = L._step
        with L.assembled():
            assert L._step is outside
        weights, post = outside
        assert post is None and L._step_terms.data.size == 0
        assert weights.indices is g.indices and weights.indptr is g.offsets
        assert not np.shares_memory(weights.data, g.weights)


@pytest.mark.parametrize("variant, make, most", [
    ("unnormalized", lambda: grid_graph(300, 300), 4.1),
    ("normalized", lambda: random_connected_graph(10 ** 5, seed=0), 0.05),
])
def test_opening_assembled_peak_in_signal_vectors(variant, make, most):
    # the unnormalized context makes one scaled copy of the graph's
    # weights and copies no index (4.0 vectors on a degree-4 grid); the
    # normalized operator holds its weights so scaled and makes nothing
    g = make()
    L = laplacian(g, variant)
    L._step_terms
    tracemalloc.start()
    try:
        with L.assembled():
            peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= most * 8 * g.n


def test_zero_copy_step_is_the_assembled_step_on_a_unit_weight_grid():
    # both add the same terms in the same order: -prev, then d_i x_i on the
    # boundary rows, the only nonzero shifted diagonal entries at the cap
    # 8, then each neighbour's w (-c x_j), with w = 1, against (-c w) x_j
    # inside the context
    L = laplacian(grid_graph(30, 40))
    assert np.array_equal(L._step_terms.row, np.flatnonzero(L.degrees != 4))
    rng = np.random.default_rng(4)
    x, prev = rng.standard_normal((2, L.n))
    lean = L.matvec(x, prev=prev, step=True)
    half = L.matvec(x, step=True)
    with L.assembled():
        assert L.matvec(x, prev=prev, step=True).tobytes() == lean.tobytes()
        assert L.matvec(x, step=True).tobytes() == half.tobytes()


@pytest.mark.parametrize("variant", ["normalized", "random_walk"])
def test_zero_copy_step_is_the_assembled_step_at_the_cap_2(variant):
    # the operator's weights are scaled for the step once, when it is
    # built: at the cap 2 they are -2 times the off-diagonal and the shifted
    # diagonal is 0, so every step is the same one CSR product, in the
    # context and out of it, on a weighted graph too
    g = random_connected_graph(500, seed=1)
    assert np.unique(g.weights).size > 1
    L = laplacian(g, variant)
    assert L.lambda_ub == 2.0 and L._step_terms.data.size == 0
    A = csr_array((L._adjacency.data, g.indices, g.offsets), shape=(g.n, g.n))
    assert _close(A.toarray(),
                  -2.0 * (np.eye(g.n) - _dense_laplacian(g, variant)))
    pou = gsdenoise.PartitionOfUnity.for_operator(L)
    rng = np.random.default_rng(8)
    x, prev = rng.standard_normal((2, g.n))

    def run():
        coeffs = gsdenoise.sgwt_forward_fast(L, x, pou, K=30)
        return (L.matvec(x, prev=prev, step=True), L.matvec(x, step=True),
                coeffs.values, gsdenoise.sgwt_inverse_fast(L, coeffs, pou,
                                                           K=30))

    lean = run()
    with L.assembled():
        for got, want in zip(run(), lean):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("slack", [0.0, 0.5])
def test_product_writes_over_its_own_inputs(variant, slack):
    # the plain product and the step into a new array, one apart from the
    # inputs, x and prev, for each count of nonzero shifted diagonal
    # entries: on the random graph every node's under its own bound
    # (unnormalized), none at the cap 2; on a unit-weight grid at its
    # Gershgorin cap, its boundary nodes' alone (unnormalized); every
    # node's above them
    for g, cap in ((random_connected_graph(73, seed=1), False),
                   (grid_graph(30, 40), True)):
        ub = (spectral_cap(g, variant) if cap
              else laplacian(g, variant).lambda_ub) + slack
        L = laplacian(g, variant, lambda_ub=ub)
        # the step holds exactly the nonzero entries of its shifted diagonal
        diag = L.degrees if variant == "unnormalized" else np.ones(g.n)
        shifted = 4.0 / ub * diag - 2.0
        d = L._step_terms
        assert np.array_equal(d.row, np.flatnonzero(shifted))
        assert d.data.tobytes() == shifted[d.row].tobytes()
        if variant != "unnormalized" and not slack:
            assert d.data.size == 0
        elif cap and not slack:
            assert np.array_equal(d.row, np.flatnonzero(L.degrees != 4))
        else:
            assert d.data.size == g.n
        dense = _dense_laplacian(g, variant)
        shifted = 2.0 * ((2.0 / ub) * dense - np.eye(g.n))
        rng = np.random.default_rng(5)
        x, prev = rng.standard_normal((2, g.n))
        for step, M in ((False, dense), (True, shifted)):
            want = M @ x - prev
            assert _close(L.matvec(x, prev=prev, step=step), want)
            assert _close(L.matvec(x, step=step), M @ x)
            for alias in ("apart", "x", "prev"):
                xa, pa = x.copy(), prev.copy()
                out = {"apart": np.empty(g.n), "x": xa, "prev": pa}[alias]
                assert L.matvec(xa, out=out, prev=pa, step=step) is out
                assert _close(out, want)
                xa = x.copy()
                out = xa if alias == "x" else np.full(g.n, np.nan)
                assert L.matvec(xa, out=out, step=step) is out
                assert _close(out, M @ x)


def _run(args):
    """Run a fresh interpreter on this source tree under -X importtime;
    returns its stdout and the modules it imported."""
    src = str(Path(gsdenoise.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-X", "importtime", *args],
                         env=env, capture_output=True, text=True, check=True,
                         timeout=120)
    imported = {line.rsplit("|", 1)[-1].strip()
                for line in run.stderr.splitlines() if "|" in line}
    return run.stdout, imported


@pytest.mark.parametrize("args", [["-c", "import gsdenoise"],
                                  ["-m", "gsdenoise", "--version"]])
def test_scipy_is_not_imported_until_a_product_needs_it(args):
    _, imported = _run(args)
    assert "gsdenoise" in imported
    assert not any(m.split(".")[0] == "scipy" for m in imported)


@pytest.fixture
def grid_files(tmp_path):
    """A small grid's edge list, a signal on it and its weight cache."""
    g = grid_graph(12, 10)
    paths = [str(tmp_path / name) for name in ("g.txt", "f.txt", "w.txt")]
    write_edgelist(g, paths[0])
    write_signal(paths[1], np.random.default_rng(3).standard_normal(g.n))
    assert main(["weights", paths[0], "-o", paths[2], "--N", "2"]) == 0
    return paths


def test_sanitize_imports_no_scipy(grid_files, tmp_path):
    _, imported = _run(["-m", "gsdenoise", "sanitize", grid_files[1], "-o",
                        str(tmp_path / "noisy.txt"), "--epsilon", "1"])
    assert "gsdenoise.cli" in imported
    assert not any(m.split(".")[0] == "scipy" for m in imported)


def test_denoise_imports_neither_scipy_sparse_nor_f2py(grid_files, tmp_path):
    gpath, fpath, wpath = grid_files
    out, imported = _run(["-m", "gsdenoise", "denoise", gpath, fpath, "-o",
                          str(tmp_path / "out.txt"), "--sigma", "1.0",
                          "--weights", wpath, "--N", "2"])
    assert "cache=hit" in out.splitlines()
    assert "gsdenoise.cli" in imported
    # numpy.ma, 10 ms of import, came with np.unique's dedupe of the
    # candidate thresholds
    assert not imported & {"scipy.sparse", "numpy.f2py", "numpy.ma"}


def test_weights_and_fast_transforms_import_neither_scipy_sparse_nor_f2py():
    _, imported = _run(["-c", textwrap.dedent("""
        import numpy as np
        from gsdenoise import (PartitionOfUnity, estimate_diagonal_weights,
                               grid_graph, laplacian, sgwt_forward_fast,
                               sgwt_inverse_fast)
        L = laplacian(grid_graph(12, 10))
        pou = PartitionOfUnity.for_operator(L)
        estimate_diagonal_weights(L, pou, K=20, N=2)
        coeffs = sgwt_forward_fast(L, np.ones(L.n), pou, K=20)
        sgwt_inverse_fast(L, coeffs, pou, K=20)
        assert L.matvec_count > 0
        """)])
    assert not imported & {"scipy.sparse", "numpy.f2py"}


def test_scipy_sparse_imports_after_a_product():
    # the kernel's own load leaves no sys.modules entry that a later
    # import of scipy.sparse would reuse without binding it
    _run(["-c", textwrap.dedent("""
        import sys
        import numpy as np
        from gsdenoise._kernels import csr_matvec
        from gsdenoise.graph import is_connected, random_connected_graph
        g = random_connected_graph(60, seed=1)
        x = np.random.default_rng(0).standard_normal(g.n)
        y = g.adj_matvec(x)
        assert "scipy.sparse" not in sys.modules
        import scipy.sparse
        from scipy.sparse import csr_array
        assert callable(scipy.sparse._sparsetools.csr_matvec)
        A = csr_array((g.weights, g.indices, g.offsets), shape=(g.n, g.n))
        assert np.array_equal(A @ x, y)
        assert np.array_equal(csr_matvec(A, x), y)
        assert is_connected(g)
        """)])
