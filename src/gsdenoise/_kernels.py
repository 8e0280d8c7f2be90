"""The sparse kernels: scipy's compiled CSR and COO matrix-vector products,
and its in-place CSR row and column scalings.

Every adjacency and Laplacian application ends in the CSR product, so a
trace of :func:`csr_matvec` times that kernel alone; a Chebyshev step
adds the nonzero entries of its shifted diagonal by the COO product
(:func:`coo_matvec`) first. Both call the compiled routines behind a scipy
array's ``A @ x`` on raw arrays, adding into a vector that is zero-filled,
as ``A @ x`` does, or that the caller already holds.

The extension that holds the routines, ``scipy.sparse._sparsetools``, is
loaded from its file on the first product, without running the
``__init__`` of scipy or of scipy.sparse: importing the package costs about
0.15 s (``numpy.f2py``, ``numpy.testing`` and ``numpy.ma`` come with it),
against about 1 ms for the file alone.
"""

import importlib.machinery
import importlib.util
import sys
from collections import namedtuple

import numpy as np

# CSR and COO matrices as the kernels read them; scipy CSR and COO arrays
# serve as well.
CSR = namedtuple("CSR", "data indices indptr shape")
COO = namedtuple("COO", "data row col shape")

_NAME = "scipy.sparse._sparsetools"
_sparsetools = None  # the extension, once a product has loaded it


def numba_enabled():
    """Always False: there is no jit kernel, only scipy's CSR product.

    Kept so that run reports can keep recording which kernel ran.
    """
    return False


def _load_sparsetools():
    """scipy.sparse._sparsetools: the loaded module if scipy.sparse has
    imported it, else a module of its own, made from the file.

    The extension uses single-phase init, so creating it enters it in
    sys.modules. That entry is removed again: a later ``import
    scipy.sparse`` would reuse it without binding it as an attribute of
    the package, and then loads a copy of its own.
    """
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    scipy = importlib.util.find_spec("scipy")
    where = [f"{d}/sparse" for d in scipy.submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec(_NAME, where)
    if spec is None:
        raise ImportError(f"no {_NAME} extension in {', '.join(where)}",
                          name=_NAME)
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(_NAME, None)
    return module


def _check(name, v, size):
    if (not isinstance(v, np.ndarray) or v.dtype != np.float64
            or v.shape != (size,) or not v.flags.c_contiguous):
        raise ValueError(f"{name} must be a C-contiguous float64 vector "
                         f"of length {size}")


def _sparsetools_module():
    global _sparsetools
    if _sparsetools is None:
        _sparsetools = _load_sparsetools()
    return _sparsetools


def _checked(A, x, out):
    """out, or a new zero vector where out is None, once x and out are fit
    for the compiled kernels, which have no bounds checks: they read len(x)
    and write len(out) from A's shape. So x and out must be float64,
    C-contiguous, of A's column and row counts, out writeable and apart
    from x, which the kernels read while they write out. A's entries must
    be float64; A itself is trusted as built."""
    rows, cols = A.shape
    _check("x", x, cols)
    if out is None:
        out = np.zeros(rows)
    else:
        _check("out", out, rows)
        if not out.flags.writeable or np.may_share_memory(x, out):
            raise ValueError("out must be writeable and must not overlap x")
    if A.data.dtype != np.float64:
        raise ValueError("A's entries must be float64")
    return out


def csr_matvec(A, x, out=None):
    """A @ x, into a new array; with out, A @ x is added into out in place,
    and out is returned.

    A is any CSR matrix with ``data``, ``indices``, ``indptr`` and
    ``shape``: a :data:`CSR` record or a scipy CSR array. x and out are
    checked as :func:`_checked` says.
    """
    out = _checked(A, x, out)
    _sparsetools_module().csr_matvec(*A.shape, A.indptr, A.indices, A.data,
                                     x, out)
    return out


def coo_matvec(A, x, out=None):
    """A @ x, into a new array; with out, A @ x is added into out in place,
    and out is returned.

    A is any COO matrix with ``data``, ``row``, ``col`` and ``shape``: a
    :data:`COO` record or a scipy COO array, whose row and col share one
    index dtype. x and out are checked as :func:`_checked` says.
    """
    out = _checked(A, x, out)
    _sparsetools_module().coo_matvec(A.data.size, A.row, A.col, A.data, x,
                                     out)
    return out


def _scale(kernel, A, v, size):
    """Multiply A's entries in place by v, checked as x of _checked is,
    and return A. A's entries must be writeable float64."""
    _check("the scale", v, size)
    if A.data.dtype != np.float64 or not A.data.flags.writeable:
        raise ValueError("A's entries must be writeable float64")
    getattr(_sparsetools_module(), kernel)(*A.shape, A.indptr, A.indices,
                                           A.data, v)
    return A


def csr_scale_rows(A, v):
    """Scale row i of the CSR matrix A by v[i], in place; returns A."""
    return _scale("csr_scale_rows", A, v, A.shape[0])


def csr_scale_columns(A, v):
    """Scale column j of the CSR matrix A by v[j], in place; returns A."""
    return _scale("csr_scale_columns", A, v, A.shape[1])
