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
from gsdenoise._kernels import CSR, csr_matvec
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
    R = L._step_matrix()
    A = csr_array((R.data, R.indices, R.indptr), shape=R.shape, copy=False)
    step = 2.0 * ((2.0 / ub) * _dense_laplacian(g, variant) - np.eye(g.n))
    assert np.allclose(A.toarray(), step, rtol=0, atol=1e-15)
    assert A.indices.dtype == A.indptr.dtype == np.int32
    assert np.all(A.data != 0)
    # on [0, 8] the diagonal of a degree-4 node is 2 (4/8) 4 - 2 = 0, and
    # on [0, 2] every diagonal entry of the normalized variants is 0
    kept = np.sum(g.degrees != 4) if variant == "unnormalized" else 0
    assert A.nnz == g.indices.size + kept


def test_assembled_context_drops_the_matrix_on_exit():
    L = laplacian(grid_graph(4, 5), "normalized")
    x = np.ones(L.n)
    with pytest.raises(RuntimeError):
        with L.assembled():
            assert L._assembled is not None
            raise RuntimeError
    assert L._assembled is None
    with L.assembled():
        R = L._assembled
        A = csr_array((R.data, R.indices, R.indptr), shape=R.shape, copy=False)
        assert _close(L.matvec(x, step=True), A @ x)
    assert L._assembled is None


def test_nested_assembled_context_reuses_an_open_matrix():
    L = laplacian(grid_graph(4, 5))
    with L.assembled():
        outer = L._assembled
        with L.assembled():
            assert L._assembled is outer
        assert L._assembled is outer
    assert L._assembled is None


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


@pytest.mark.parametrize("case", ["short x", "long out", "float32 x",
                                  "int out", "strided out", "strided x",
                                  "read-only out", "out is x", "list x"])
def test_csr_matvec_rejects_what_the_raw_kernel_would_overrun(case):
    A = random_connected_graph(30, seed=2).adjacency
    x, out = _bad_vectors(case)
    with pytest.raises(ValueError):
        csr_matvec(A, x, out)


def _record(g):
    return CSR(g.weights, g.indices, g.offsets, (g.n, g.n))


@pytest.mark.parametrize("form", ["scipy", "record"])
@pytest.mark.parametrize("case", ["short x", "float32 x", "strided x",
                                  "list x"])
def test_csr_matvec_into_a_new_array_rejects_a_bad_x(case, form):
    g = random_connected_graph(30, seed=2)
    A = g.adjacency if form == "scipy" else _record(g)
    x, _ = _bad_vectors(case)
    with pytest.raises(ValueError, match="x must be"):
        csr_matvec(A, x)


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
    # nor inside an assembled step matrix
    with L.assembled():
        with pytest.raises(ValueError, match="length 20"):
            L.matvec(np.ones(3), step=True)
    assert L.matvec_count == 0


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
    R = W._step_matrix()
    assert R.indices.dtype == R.indptr.dtype == np.int64


def test_normalized_step_matrix_shares_the_graph_index_arrays():
    # at the cap 2 every shifted diagonal entry is 2 * 1 - 2 = 0, so the
    # matrix is the graph's pattern with new values
    g = random_connected_graph(500, seed=1)
    for variant in ("normalized", "random_walk"):
        R = laplacian(g, variant)._step_matrix()
        assert R.indices is g.indices and R.indptr is g.offsets
        assert not np.shares_memory(R.data, g.weights)


@pytest.mark.parametrize("variant, make, most", [
    ("unnormalized", lambda: grid_graph(300, 300), 8.5),
    ("normalized", lambda: random_connected_graph(10 ** 5, seed=0), 6.0),
])
def test_step_matrix_build_peak_in_signal_vectors(variant, make, most):
    # the values are scaled in place, and no index array is copied; the
    # build peaked at 9.5 vectors on both graphs with int64 graph indices
    # (8.06 and 5.38 measured)
    g = make()
    L = laplacian(g, variant)
    L._step_terms
    tracemalloc.start()
    try:
        R = L._step_matrix()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert R.shape == (g.n, g.n)
    assert peak <= most * 8 * g.n


def test_zero_copy_step_is_the_assembled_step_on_a_unit_weight_grid():
    # both add the same terms in the same order: -prev, then d_i x_i on the
    # boundary rows, the only nonzero shifted diagonal entries at the cap
    # 8, then each neighbour's w (-c x_j), with w = 1
    L = laplacian(grid_graph(30, 40))
    assert _held_diagonal(L)[0] == "sparse"
    rng = np.random.default_rng(4)
    x, prev = rng.standard_normal((2, L.n))
    lean = L.matvec(x, prev=prev, step=True)
    half = L.matvec(x, step=True)
    with L.assembled():
        assert L.matvec(x, prev=prev, step=True).tobytes() == lean.tobytes()
        assert L.matvec(x, step=True).tobytes() == half.tobytes()


@pytest.mark.parametrize("variant", ["normalized", "random_walk"])
def test_zero_copy_step_is_the_assembled_step_at_the_cap_2(variant):
    # the operator's weights are scaled once, when it is built; at the cap 2
    # the shifted diagonal is 0 and post is -2, which scales exactly, so the
    # zero-copy step adds each neighbour's w (-2 x_j) in the step matrix's
    # order, on a weighted graph too
    g = random_connected_graph(500, seed=1)
    assert np.unique(g.weights).size > 1
    L = laplacian(g, variant)
    assert L.lambda_ub == 2.0 and _held_diagonal(L)[1].size == 0
    A = csr_array((L._adjacency.data, g.indices, g.offsets), shape=(g.n, g.n))
    assert _close(A.toarray(), np.eye(g.n) - _dense_laplacian(g, variant))
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


def _held_diagonal(L):
    """The form in which L's step holds its shifted diagonal, and the rows
    and values of its nonzero entries."""
    diag = L._step_terms[0]
    if isinstance(diag, tuple):
        return ("sparse", *diag)
    rows = np.flatnonzero(diag)
    return "dense", rows, diag[rows]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("slack", [0.0, 0.5])
def test_product_writes_over_its_own_inputs(variant, slack):
    # the plain product and the step into a new array, one apart from the
    # inputs, x and prev, for each form of the shifted diagonal: on the
    # random graph dense under its own bound (unnormalized) or none at the
    # cap 2; on a unit-weight grid at its Gershgorin cap, its boundary
    # entries alone (unnormalized); nonzero everywhere above them, for the
    # normalized variants a view of one scalar. post is a scalar always.
    for g, cap in ((random_connected_graph(73, seed=1), False),
                   (grid_graph(30, 40), True)):
        ub = (spectral_cap(g, variant) if cap
              else laplacian(g, variant).lambda_ub) + slack
        L = laplacian(g, variant, lambda_ub=ub)
        assert np.ndim(L._terms[1]) == np.ndim(L._step_terms[1]) == 0
        form, rows, vals = _held_diagonal(L)
        if variant != "unnormalized" and slack:
            assert form == "dense" and rows.size == g.n
            assert L._step_terms[0].strides == (0,)
        elif variant != "unnormalized":
            assert form == "sparse" and rows.size == 0
        elif cap and not slack:
            assert form == "sparse"
            assert 0 < graph.SPARSE_DIAG * rows.size <= g.n
        else:
            assert form == "dense" and rows.size == g.n
        # the step matrix's diagonal entries are exactly those held
        R = L._step_matrix()
        at = np.flatnonzero(R.indices == np.repeat(np.arange(g.n),
                                                   np.diff(R.indptr)))
        assert np.array_equal(R.indices[at], rows)
        assert R.data[at].tobytes() == vals.tobytes()
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
    assert not imported & {"scipy.sparse", "numpy.f2py"}


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
