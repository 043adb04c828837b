"""Complex-symmetric linear algebra around the one resolvent kernel.

Green's matrices on the strip are complex *symmetric* (not Hermitian).  Every
recursion path hands :func:`resolvent` A, the neighbor sum, V, lam and z; it
composes M itself and inverts it over ``(..., m, m)`` stacks with one error
policy: in closed form at m = 2, else by Gauss-Jordan elimination batched over
the stack, with LAPACK's pivoted LU for the members whose pivots are small.
Beside it: the Herglotz indicator min eig Im M, the upper-half-plane root
branch and the PSD check.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrixError

# Slack below zero allowed for min eig Im G on the dissipative branch.
HERGLOTZ_SLACK = 1e-10

# Threshold pivoting (Duff, Erisman & Reid, Direct Methods for Sparse Matrices):
# a pivot at most this share of its column's largest entry left sends its member to LAPACK.
PIVOT_THRESHOLD = 0.01


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


def resolvent(A, neighbor_sum, V, lam, z):
    """sym_part(inv(M)) over (..., m, m) stacks, M = (A + lam V) - z - neighbor_sum / 4.

    ``A`` is the (m, m) strip block, ``neighbor_sum`` the (..., m, m) sums of the
    K (forward) or K + 1 (root) neighbor Green's matrices, ``V`` symmetric
    potentials that broadcast to its shape, and ``z`` one value or one per
    member.  A singular member, a non-finite entry or an overflow raises
    :class:`SingularMatrixError` with no RuntimeWarning, a non-square A
    ValueError.  At m = 2 the closed form [[d, -b], [-b, a]] / (ad - b^2) runs
    on the packed entries a, b (upper), d of M.

    Other widths run Gauss-Jordan elimination without pivoting on the whole
    stack at once (1 / M at m = 1).  For eta > 0 and Herglotz neighbors each
    pivot has |p| >= eta, as Im(-M) >= eta I holds for every Schur complement
    (Golub & Van Loan, section 4.2), but a pivot that small beside its column
    costs digits, and at eta = 0 one can vanish.  A member with a pivot at most
    PIVOT_THRESHOLD times its column's largest entry left, or not finite, is
    inverted again by LAPACK, per member, so stacks and single calls agree.
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
    m = len(A)
    if m == 2:
        q = 0.25 * neighbor_sum.reshape(-1, 4)  # one product for all four entries
        # A + lam V: one add for a V shared by the stack, else on the entries read
        x = (B + A).reshape(1, 4) if B.size == 4 else B.reshape(-1, 4)
        xa, xb, xd = x[:, 0], x[:, 1], x[:, 3]
        if B.size != 4:  # not an (n, 2, 2) broadcast of A
            xa, xb, xd = xa + A[0, 0], xb + A[0, 1], xd + A[1, 1]
        # one buffer per stack member: V and z may be shared by the whole stack
        a = np.subtract(xa, z, out=np.empty(len(q), complex))
        a -= q[:, 0]
        d = np.subtract(xd, z, out=np.empty(len(q), complex))
        d -= q[:, 3]
        b = xb - q[:, 1]
        det = a * d
        det -= b * b
        if not np.isfinite(det).all():  # checked before dividing
            raise SingularMatrixError("non-finite entry or pivot in the recursion")
        if np.count_nonzero(det) < det.size:
            raise SingularMatrixError("singular matrix in the recursion")
        G = np.empty(det.shape + (4,), dtype=complex)
        np.divide(d, det, out=G[:, 0])
        np.divide(a, det, out=G[:, 3])
        b = b / det
        G[:, 1] = G[:, 2] = -0.5 * (b + b)  # sym_part's form: -b can flip a zero's sign
        return G.reshape(neighbor_sum.shape)
    # Gauss-Jordan on M built in the (m, m, n) layout: each step is a few (n,) rows
    B += A
    S = neighbor_sum.reshape(-1, m, m)
    Bn = np.broadcast_to(B, neighbor_sum.shape).reshape(S.shape)
    W = Bn.transpose(1, 2, 0).astype(complex, order="C")
    for i in range(m):
        W[i, i] -= z
    W -= 0.25 * S.transpose(1, 2, 0)
    fallback = np.zeros(len(S), dtype=bool)
    for k in range(m):
        col = np.abs(W[k:, k])
        small = ~(col[0] > PIVOT_THRESHOLD * col.max(axis=0))  # NaN or inf: True
        if small.any():  # these go on as the identity and are inverted again below
            fallback |= small
            W[..., small] = np.eye(m)[..., None]
        f = W[:, k].copy()
        W[:, k] = 0.0
        W[k, k] = 1.0
        W[k] *= 1.0 / f[k]
        W[:k] -= f[:k, None] * W[k]
        W[k + 1:] -= f[k + 1:, None] * W[k]
    G = W.transpose(2, 0, 1) + W.transpose(2, 1, 0)  # sym_part's sum, then its half
    G *= 0.5
    if fallback.any():
        i = np.flatnonzero(fallback)
        M = Bn[i] - np.multiply.outer(np.broadcast_to(z, len(S))[i], np.eye(m)) - 0.25 * S[i]
        try:
            G[i] = sym_part(np.linalg.inv(M))
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(f"singular matrix in the recursion: {exc}") from exc
        if not (np.isfinite(M).all() and np.isfinite(G).all()):
            raise SingularMatrixError("non-finite entry in the recursion")
    return G.reshape(neighbor_sum.shape)


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
