"""The one sparse kernel: scipy's compiled CSR matrix-vector product.

Every adjacency and Laplacian application ends here, so a trace of this
function times the kernel alone.
"""


def numba_enabled():
    """Always False: there is no jit kernel, only scipy's CSR product.

    Kept so that run reports can keep recording which kernel ran.
    """
    return False


def csr_matvec(A, x):
    """A @ x for a scipy CSR array A, into a new array."""
    return A @ x
