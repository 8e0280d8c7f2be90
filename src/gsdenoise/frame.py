"""Tight wavelet frame on the Laplacian spectrum, exact transforms.

The frame is generated by a partition of unity built from dilations of a
plateau window: psi_0(x) = omega(x) and psi_j(x) = omega(b^-j x) -
omega(b^-j+1 x), whose sum telescopes to 1 on [0, lambda_ub].
:meth:`PartitionOfUnity.sqrt_bands` defines the frame's filters sqrt(psi_j)
once, for the exact transforms here and the Chebyshev fast path alike. The
exact transforms and frame matrix go through a dense eigendecomposition and
are meant for small graphs, as the reference against which the fast path
is validated.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import DENSE_CAP
from .signals import as_signal, require_choice, require_positive

POU_KINDS = ("linear", "smooth")
FRAME_CAP = 200  # the most nodes the dense frame matrix is formed for


def _smooth_step(u, c):
    """g_c(u) = f(u) / (f(u) + f(c - u)) with f(x) = exp(-1/x) for x > 0.

    Rises smoothly from 0 at u <= 0 to exactly 1 at u >= c. Computed in the
    equivalent logistic form 1 / (1 + exp(1/u - 1/(c - u))), which stays
    finite for every c > 0; arguments within 1e-12 of the flat pieces are
    flushed to them so the plateau is exact.
    """
    u = np.asarray(u, dtype=np.float64)
    lo = u <= 1e-12
    hi = u >= c - 1e-12
    mid = ~(lo | hi)
    out = np.empty_like(u)
    out[lo] = 0.0
    out[hi] = 1.0
    um = u[mid]
    d = np.clip(1.0 / um - 1.0 / (c - um), -700.0, 700.0)
    out[mid] = 1.0 / (1.0 + np.exp(d))
    return out


def require_window(kind, b, c):
    """Refuse an unknown window kind, b not above 1 or c not positive."""
    require_choice("window kind", kind, POU_KINDS)
    if not b > 1:
        raise ValueError("dilation base b must exceed 1")
    if not c > 0:
        raise ValueError("smoothness parameter c must be positive")


def require_base(variant, b):
    """Refuse b above 2 for the normalized and random-walk variants."""
    if variant in ("normalized", "random_walk") and b > 2.0:
        raise ValueError(f"b={b} not allowed for the {variant} variant; "
                         "choose b in (1, 2]")


@dataclass(frozen=True)
class PartitionOfUnity:
    """Plateau window and its dilated band family on [0, lambda_ub].

    kind selects the window: "linear" is the piecewise linear plateau, equal
    to 1 on [0, 1/b], affine down to 0 at 1; "smooth" uses the C-infinity
    bump machinery g_c, with its transition profile mapped onto the same
    band (1/b, 1) so the plateau covers [0, 1/b] exactly for every b. The
    bands sum to omega(x / b^J), 1 on [0, b^(J-1)], and J is the fewest that
    cover the interval, so none is 0 on it: the fewest with lambda_ub <=
    b^(J-1), or with omega(lambda_ub / b^J) already 1, as the smooth window
    rounds to 1 a little past its plateau.
    """

    kind: str
    b: float
    lambda_ub: float
    c: float = 1.0
    J: int = field(init=False)

    def __post_init__(self):
        require_window(self.kind, self.b, self.c)
        require_positive("lambda_ub", self.lambda_ub)
        # the log's rounding can miss by one, so it starts one below; the
        # exact tests settle the count
        J = max(math.ceil(math.log(self.lambda_ub, self.b)) - 1, 0)
        while (self.lambda_ub > self.b ** (J - 1)
               and self.omega(self.lambda_ub / self.b ** J) < 1.0):
            J += 1
        object.__setattr__(self, "J", J)

    @classmethod
    def for_operator(cls, L, kind="linear", b=2.0, c=1.0):
        """Build the partition for a Laplacian operator.

        The normalized and random-walk variants, with spectrum in [0, 2],
        restrict b to (1, 2]; b = 2 and the bound 2 give J = 2.
        """
        require_base(L.variant, b)
        return cls(kind, b, L.lambda_ub, c=c)

    def omega(self, x):
        """Plateau window, 1 on [0, 1/b], 0 beyond 1, monotone between."""
        x = np.asarray(x, dtype=np.float64)
        binv = 1.0 / self.b
        if self.kind == "linear":
            down = self.b / (1.0 - self.b) * x + self.b / (self.b - 1.0)
            out = np.where(x <= binv, 1.0, np.where(x > 1.0, 0.0, down))
        else:
            # map the transition band [1/b, 1] onto [c, 0] of the g_c profile
            u = self.c * (1.0 - x) / (1.0 - binv)
            out = np.where(x <= binv, 1.0,
                           np.where(x >= 1.0, 0.0, _smooth_step(u, self.c)))
        return float(out) if out.ndim == 0 else out

    def psi(self, j, x):
        """Band j of the partition; the J + 1 bands sum to 1 on the interval."""
        if not 0 <= j <= self.J:
            raise ValueError(f"scale index {j} outside 0..{self.J}")
        x = np.asarray(x, dtype=np.float64)
        if j == 0:
            return self.omega(x)
        return self.omega(self.b ** (-j) * x) - self.omega(self.b ** (-j + 1) * x)

    def sqrt_bands(self, x):
        """The frame's filters sqrt(psi_j)(x), one row per scale j = 0..J."""
        return np.stack([np.sqrt(np.clip(self.psi(j, x), 0.0, None))
                         for j in range(self.J + 1)])

    def fingerprint(self):
        return (f"kind={self.kind},b={self.b!r},c={self.c!r},"
                f"lambda_ub={self.lambda_ub!r},J={self.J}")


def require_partition(L, pou):
    """Refuse a partition built for another bound than the operator's: its
    bands do not sum to 1 on the operator's interval."""
    if pou.lambda_ub != L.lambda_ub:
        raise ValueError(f"partition built for lambda_ub={pou.lambda_ub!r}, "
                         f"but the operator's bound is {L.lambda_ub!r}; "
                         "build it with PartitionOfUnity.for_operator")


@dataclass(eq=False)
class FrameCoefficients:
    """Wavelet coefficients of all J + 1 scales, scale-major in one vector.

    Coefficient index i addresses scale i // n and node i % n, so each
    scale's block is contiguous.
    """

    values: np.ndarray
    n: int
    J: int

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.shape != (self.n * (self.J + 1),):
            raise ValueError(
                f"expected {self.n * (self.J + 1)} coefficients "
                f"(n={self.n}, J={self.J}), got shape {self.values.shape}")

    def block(self, j):
        """View of scale j's coefficients."""
        if not 0 <= j <= self.J:
            raise ValueError(f"scale index {j} outside 0..{self.J}")
        return self.values[j * self.n:(j + 1) * self.n]

    def as_blocks(self):
        """(J + 1, n) view, one row per scale."""
        return self.values.reshape(self.J + 1, self.n)


@dataclass(eq=False)
class EigenDecomposition:
    """Spectrum and eigenvectors backing the exact transforms.

    eigenvalues are descending. eigenvectors are the orthonormal basis of
    the symmetric form; for the random-walk variant, filters act through the
    similarity transform, encoded by the pre/post diagonal scalings
    rho(L_rw) = post * (U rho(mu) U^T) * pre with pre = sqrt(deg) and
    post = 1/sqrt(deg).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    pre: np.ndarray = None
    post: np.ndarray = None

    def apply_filter(self, rho_values, f):
        """Apply the spectral filter whose values at the eigenvalues are given."""
        g = f if self.pre is None else self.pre * f
        g = self.eigenvectors.T @ g
        g = self.eigenvectors @ (rho_values * g)
        return g if self.post is None else self.post * g

    def filter_matrix(self, rho_values):
        """Dense matrix of the spectral filter."""
        M = (self.eigenvectors * rho_values) @ self.eigenvectors.T
        if self.pre is not None:
            M = self.post[:, None] * M * self.pre[None, :]
        return M


def exact_eigendecomposition(L):
    """Full dense eigendecomposition of the Laplacian operator.

    The random-walk variant is handled through its symmetric similar form
    (the normalized Laplacian): same spectrum, eigenvectors mapped by the
    degree scaling.
    """
    g = L.graph
    if g.n > DENSE_CAP:
        raise ValueError(
            f"exact eigendecomposition refused for n={g.n} > {DENSE_CAP}; "
            "use the Chebyshev fast transform at this scale")
    W = g.to_dense_adjacency()
    deg = L.degrees
    pre = post = None
    if L.variant == "unnormalized":
        M = np.diag(deg) - W
    else:
        isd = 1.0 / np.sqrt(deg)
        M = np.eye(g.n) - isd[:, None] * W * isd[None, :]
        if L.variant == "random_walk":
            pre, post = np.sqrt(deg), isd
    vals, vecs = np.linalg.eigh(M)
    order = np.argsort(vals)[::-1]  # descending
    return EigenDecomposition(vals[order], vecs[:, order], pre=pre, post=post)


def sgwt_forward_exact(L, f, pou, eig=None):
    """Analysis transform through the eigendecomposition.

    Block j is sqrt(psi_j)(L) f. Pass a precomputed eigendecomposition when
    transforming many signals on the same operator. A partition built for
    another bound is refused (:func:`require_partition`).
    """
    require_partition(L, pou)
    f = as_signal(f, L.n)
    if eig is None:
        eig = exact_eigendecomposition(L)
    bands = pou.sqrt_bands(eig.eigenvalues)
    return FrameCoefficients(
        np.concatenate([eig.apply_filter(band, f) for band in bands]), L.n,
        pou.J)


def sgwt_inverse_exact(L, coeffs, pou, eig=None):
    """Synthesis transform, the adjoint: sum of sqrt(psi_j)(L) applied per block.

    Inverts the forward transform exactly because the bands square-sum to 1
    on the spectrum. A partition built for another bound is refused.
    """
    require_partition(L, pou)
    if coeffs.n != L.n or coeffs.J != pou.J:
        raise ValueError("coefficient dimensions do not match operator/partition")
    if eig is None:
        eig = exact_eigendecomposition(L)
    bands = pou.sqrt_bands(eig.eigenvalues)
    return sum(eig.apply_filter(band, block)
               for band, block in zip(bands, coeffs.as_blocks()))


def frame_matrix_exact(L, pou):
    """Dense analysis operator, one row per (scale, node) coefficient.

    Row j*n + i is the functional producing coefficient i of scale j, so
    that frame_matrix_exact(L, pou) @ f equals the forward transform of f.
    A partition built for another bound is refused.
    """
    require_partition(L, pou)
    if L.n > FRAME_CAP:
        raise ValueError(f"frame matrix refused for n={L.n} > {FRAME_CAP}")
    eig = exact_eigendecomposition(L)
    bands = pou.sqrt_bands(eig.eigenvalues)
    return np.concatenate([eig.filter_matrix(band) for band in bands])
