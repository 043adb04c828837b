"""Closed forms for the disorder-free strip.

With a diagonal strip operator A the forward Green's matrix decouples per
orbital into the smaller root of (K/4) g^2 + (z - a_k) g + 1 = 0.  The roots
have product 4/K, and u = (sqrt K / 2) g turns the equation into the Joukowski
map (z - a_k) / sqrt K = -(u + 1/u) / 2, under which |u| < 1 keeps the sign of
Im.  So the smaller root is the upper one for eta > 0; at eta = 0 it is the
limit eta -> 0+: real and decaying at a band edge and outside, -4 A_E inside a
band, where both roots lie on |g| = 2 / sqrt K.  Everything else here is a
short formula on top of that root.
"""

import numpy as np

from .errors import OutOfBandError
from .linalg import SpectralPoint, sqrt_upper


def _in_band_root(x, K):
    """(A_E)_kk = (x - i sqrt(K - x^2)) / (2K), x = E - a_k, |x| <= sqrt K."""
    return (x - 1j * np.sqrt(K - x * x)) / (2.0 * K)


def forward_roots(sp: SpectralPoint, a, K):
    """Forward root at each real a_k: the free diagonal, shape (m,), at any eta >= 0.

    The smaller root of (K/4) g^2 + (z - a_k) g + 1 = 0, in the closed upper
    half plane.  With x = z - a_k and s = sqrt_upper(x^2 - K) the roots are
    (2/K)(-x + s) and -(2/K)(x + s), each taken where it does not cancel and
    the smaller one via the root product 4/K; a tie (the band at eta = 0) takes
    (2/K)(-x + s), the upper root.  The error is a few ulp at every eta >= 0.
    """
    x = complex(sp.z) - np.asarray(a, dtype=complex)
    s = sqrt_upper(x * x - K)
    minus, plus = np.abs(-x + s), np.abs(x + s)
    # the branch not chosen can divide by an exact 0, e.g. x + s at E = -1e8
    with np.errstate(divide="ignore", invalid="ignore"):
        g = (2.0 / K) * (-x + s)
        return np.where(minus == plus, g,
                        np.where(minus > plus, 4.0 / (K * g), -2.0 / (x + s)))


def free_forward_green(sp: SpectralPoint, model):
    """Forward (half-tree) Green's matrix of the free strip, diagonal (m, m).

    Valid at every eta >= 0: the diagonal is :func:`forward_roots` at A.
    """
    return np.diag(forward_roots(sp, model.a, model.K))


def free_full_green(sp: SpectralPoint, model):
    """Full-lattice Green's matrix of the free strip, diagonal (m, m).

    A root vertex has K + 1 neighbors, so the forward matrices of all
    branches dress the diagonal: G(z) = [A - z - (K+1)/4 G0(z)]^{-1}.
    """
    g_fwd = np.diagonal(free_forward_green(sp, model))
    a = np.asarray(model.a, dtype=complex)
    return np.diag(1.0 / (a - complex(sp.z) - ((model.K + 1) / 4.0) * g_fwd))


def a_e_matrix(E, model):
    """Diagonal matrix -G0(E)/4 parameterizing the real-axis free fixed point.

    Entries (E - a_k - i sqrt(K - (E - a_k)^2)) / (2K), each of modulus
    1/(2 sqrt K).  Defined for |E - a_k| <= sqrt(K) for every orbital, i.e.
    on the closure of the band intersection window.
    """
    x = float(E) - np.asarray(model.a, dtype=float)
    if not (x * x <= model.K).all():  # NaN fails the inside test too
        raise OutOfBandError(
            f"E={E:g} leaves |E - a_k| <= sqrt(K) for some orbital"
        )
    return np.diag(_in_band_root(x, model.K))


def free_dos(sp_or_E, model):
    """Density of states per orbital of the free strip, (1/(m pi)) Im Tr G."""
    sp = sp_or_E
    if not isinstance(sp, SpectralPoint):
        sp = SpectralPoint(float(sp_or_E))
    full = free_full_green(sp, model)
    return float(np.trace(full).imag / (model.m * np.pi))

