"""The one sparse kernel: scipy's compiled CSR matrix-vector product.

Every adjacency and Laplacian application ends here, so a trace of this
function times the kernel alone. Plain products go through ``A @ x``; the
assembled Chebyshev steps call the compiled routine behind it directly, so
that it adds into a buffer the caller already holds.
"""

import numpy as np


def numba_enabled():
    """Always False: there is no jit kernel, only scipy's CSR product.

    Kept so that run reports can keep recording which kernel ran.
    """
    return False


def csr_matvec(A, x, out=None):
    """A @ x for a scipy CSR array A, into a new array; with out, A @ x is
    added into out in place, and out is returned.

    The in-place form calls scipy's compiled ``csr_matvec``, which has no
    bounds checks: it reads len(x) and writes len(out) from A's shape. So
    x and out are checked first: float64, C-contiguous, of A's column and
    row counts, out writeable and apart from x, which the kernel reads
    while it writes out. A itself is trusted as built.
    """
    if out is None:
        return A @ x
    from scipy.sparse import _sparsetools
    rows, cols = A.shape
    for name, v, size in (("x", x, cols), ("out", out, rows)):
        if (not isinstance(v, np.ndarray) or v.dtype != np.float64
                or v.shape != (size,) or not v.flags.c_contiguous):
            raise ValueError(f"{name} must be a C-contiguous float64 vector "
                             f"of length {size}")
    if not out.flags.writeable or np.may_share_memory(x, out):
        raise ValueError("out must be writeable and must not overlap x")
    if A.data.dtype != np.float64:
        raise ValueError("A's entries must be float64")
    _sparsetools.csr_matvec(rows, cols, A.indptr, A.indices, A.data, x, out)
    return out
