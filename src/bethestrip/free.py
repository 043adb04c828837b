"""Closed forms for the disorder-free strip.

With a diagonal strip operator A the forward Green's matrix decouples per
orbital and solves the scalar quadratic (K/4) g^2 + (z - a_k) g + 1 = 0.  The
physical root is the one in the upper half plane for eta > 0; eta = 0 means
the real-axis limit eta -> 0+, which exists at every real energy: -4 A_E
inside a band, the real decaying root outside.  Everything else here -- the
full-lattice Green's matrix, the boundary matrix A_E and the density of
states -- is a short formula on top of that root.
"""

import numpy as np

from .errors import OutOfBandError
from .linalg import SpectralPoint, sqrt_upper


def _in_band_root(x, K):
    """(A_E)_kk = (x - i sqrt(K - x^2)) / (2K), x = E - a_k, |x| <= sqrt K."""
    return (x - 1j * np.sqrt(K - x * x)) / (2.0 * K)


def _forward_diag(z, a, K):
    """Upper-half-plane root of (K/4) g^2 + (z - a) g + 1 = 0, per orbital."""
    x = z - np.asarray(a, dtype=complex)
    s = sqrt_upper(x * x - K)
    # stable quadratic root: -x + s and -K/(x + s) are the same number,
    # evaluated without cancellation on opposite half-lines
    with np.errstate(divide="ignore", invalid="ignore"):
        g_sum = (2.0 / K) * (-x + s)
        g_quot = np.where(x + s != 0.0, -2.0 / (x + s), np.inf)
    g = np.where(np.abs(-x + s) > np.abs(x + s), g_sum, g_quot)
    # exactly one root lies in the upper half plane (root product 4/K > 0)
    return np.where(g.imag > 0, g, 4.0 / (K * g))


def forward_roots(sp: SpectralPoint, a, K):
    """Forward root at each real a_k: the free diagonal, shape (m,), at any eta >= 0.

    For eta > 0 the root of (K/4) g^2 + (z - a_k) g + 1 = 0 in the upper half
    plane.  At eta = 0 the real-axis limit: -4 A_E strictly inside a band, the
    real decaying root at a band edge and outside, the two meeting
    continuously at the edge.
    """
    if sp.eta > 0.0:
        return _forward_diag(complex(sp.z), a, K)
    x = float(sp.E) - np.asarray(a, dtype=float)
    w = x * x - K
    with np.errstate(invalid="ignore"):
        inside = -4.0 * _in_band_root(x, K)
        outside = (2.0 / K) * (-x + np.sign(x) * np.sqrt(w))
    return np.where(w < 0.0, inside, outside)


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

