"""Complex-symmetric linear algebra around the one resolvent kernel.

Green's matrices on the strip are complex *symmetric* (not Hermitian).  Every
recursion path hands :func:`resolvent` A, the neighbor sum, V, lam and z; it
composes M itself and inverts it over ``(..., m, m)`` stacks with one error
policy: by LAPACK, or in closed form at m = 1 (1 / M) and m = 2 (on M's packed
entries).  Beside it: the Herglotz indicator min eig Im M, the upper-half-plane
root branch and the PSD check.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrixError

# Slack below zero allowed for min eig Im G on the dissipative branch.
HERGLOTZ_SLACK = 1e-10


@dataclass(frozen=True)
class SpectralPoint:
    """A spectral parameter z = E + i eta with eta >= 0 kept explicit.

    eta == 0 means the real-axis limit eta -> 0+, which the free closed
    forms give at every real E; routines that need dissipation, such as
    the samplers, require eta > 0.
    """

    E: float
    eta: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.E) and np.isfinite(self.eta)):
            raise ValueError("spectral point must be finite")
        if self.eta < 0:
            raise ValueError("eta must be >= 0 (upper half plane)")

    @property
    def z(self) -> complex:
        return complex(self.E, self.eta)


def sym_part(M):
    """Symmetric part (M + M^T)/2.  Transpose, no conjugation."""
    return 0.5 * (M + np.swapaxes(M, -1, -2))


def _check_pivots(p):
    """Raise before dividing unless every pivot (det at m = 2, M at m = 1) is usable.

    A non-finite entry makes its pivot non-finite, so one test covers both.
    """
    if not np.isfinite(p).all():
        raise SingularMatrixError("non-finite entry or pivot in the recursion")
    if np.count_nonzero(p) < p.size:
        raise SingularMatrixError("singular matrix in the recursion")


def resolvent(A, neighbor_sum, V, lam, z):
    """sym_part(inv(M)) over (..., m, m) stacks, M = (A + lam V) - z - neighbor_sum / 4.

    ``A`` is the (m, m) strip block, ``neighbor_sum`` the (..., m, m) sums of the
    K (forward) or K + 1 (root) neighbor Green's matrices, ``V`` symmetric
    potentials that broadcast to its shape, and ``z`` one value or one per
    member.  A singular member, a non-finite entry or an overflow raises
    :class:`SingularMatrixError` with no RuntimeWarning, a non-square A
    ValueError.  For eta > 0 and Herglotz neighbors Im(-M) >= eta, so
    ||M^-1|| <= 1/eta and no pivot floor is needed.  At m = 2 the closed form
    [[d, -b], [-b, a]] / (ad - b^2) runs on the packed entries a, b (upper), d
    of M; at m = 1 the reciprocal 1 / M.  Both check the pivot before dividing;
    an ad - b^2 or a quotient that overflows raises from the floating-point
    status.
    """
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"resolvent expects an (m, m) block A, got {A.shape}")
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _resolvent(A, neighbor_sum, V, lam, z)
    except FloatingPointError as exc:
        raise SingularMatrixError(f"floating-point error in the recursion: {exc}") from exc


def _resolvent(A, neighbor_sum, V, lam, z):
    B = lam * V
    B += A
    if len(A) == 2:
        x, s = B.reshape(-1, 4), neighbor_sum.reshape(-1, 4)
        # one buffer per stack member: V and z may be shared by the whole stack
        a = np.subtract(x[:, 0], z, out=np.empty(len(s), complex))
        a -= 0.25 * s[:, 0]
        d = np.subtract(x[:, 3], z, out=np.empty(len(s), complex))
        d -= 0.25 * s[:, 3]
        b = x[:, 1] - 0.25 * s[:, 1]
        det = a * d
        det -= b * b
        _check_pivots(det)
        G = np.empty(det.shape + (4,), dtype=complex)
        np.divide(d, det, out=G[:, 0])
        np.divide(a, det, out=G[:, 3])
        b = b / det
        G[:, 1] = G[:, 2] = -0.5 * (b + b)  # sym_part's form: -b can flip a zero's sign
        return G.reshape(neighbor_sum.shape)
    M = (B - np.multiply.outer(z, np.eye(len(A)))) - 0.25 * neighbor_sum
    if len(A) == 1:
        _check_pivots(M)
        return 1.0 / M
    try:
        G = np.linalg.inv(M)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"singular matrix in the recursion: {exc}") from exc
    if not np.isfinite(G).all():
        raise SingularMatrixError("the recursion produced non-finite entries")
    return sym_part(G)


def sqrt_upper(w):
    """Square root branch with values in the closed upper half plane.

    Principal square root, with the sign flipped whenever the principal
    branch lands in the open lower half plane.  Real w >= 0 maps to the
    non-negative real root, real w < 0 to +i sqrt(|w|).
    """
    r = np.sqrt(np.asarray(w, dtype=complex))
    return np.where(r.imag < 0.0, -r, r)[()]


def _imag_floor(M):
    """Smallest eigenvalue of Im M for each matrix of a (..., m, m) stack."""
    im = np.asarray(M, dtype=complex).imag
    return np.linalg.eigvalsh(0.5 * (im + im.swapaxes(-1, -2)))[..., 0]


def min_imag_eigenvalue(M) -> float:
    """Smallest eigenvalue of Im M over a (..., m, m) stack; >= 0 is Herglotz."""
    return float(_imag_floor(M).min())


def require_psd(M):
    """Check that the test matrix M is a real symmetric PSD square matrix."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("test matrix must be a square matrix")
    if not np.allclose(M, M.T, atol=1e-12):
        raise ValueError("test matrix must be symmetric")
    scale = max(float(np.max(np.abs(M))), 1.0)
    if np.linalg.eigvalsh(M)[0] < -1e-10 * scale:
        raise ValueError("test matrix must be positive semidefinite")
