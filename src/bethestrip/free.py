"""Closed forms for the disorder-free strip.

With a diagonal strip operator A the forward Green's matrix decouples per
orbital into the smaller root of (K/4) g^2 + (z - a_k) g + 1 = 0.  The roots
have product 4/K, and u = (sqrt K / 2) g turns the equation into the Joukowski
map (z - a_k) / sqrt K = -(u + 1/u) / 2, under which |u| < 1 keeps the sign of
Im.  So the smaller root is the upper one for eta > 0; at eta = 0 it is the
limit eta -> 0+: real and decaying at a band edge and outside, the upper root
of modulus 2 / sqrt K inside a band.  The rest is short formulas on that root:
A_E = -1/4 forward_roots on band_intersection's closed window, of modulus
1 / (2 sqrt K) exactly inside it and within sqrt(ulp) at its endpoints.
"""

import numpy as np

from .errors import OutOfBandError
from .linalg import SpectralPoint, sqrt_upper
from .model import band_intersection


def forward_roots(z, a, K):
    """Forward root at z (any shape, Im z >= 0) and each real a_k: shape z.shape + (m,).

    The smaller root of (K/4) g^2 + (z - a_k) g + 1 = 0, in the closed upper
    half plane.  With x = z - a_k and s = sqrt_upper(x^2 - K) the roots are
    (2/K)(-x + s) and -(2/K)(x + s), each taken where it does not cancel and
    the smaller one via the root product 4/K; a tie (the band at eta = 0) takes
    (2/K)(-x + s), the upper root.  The error is a few ulp at every eta >= 0.
    """
    x = np.subtract.outer(z, np.asarray(a, dtype=complex))
    s = sqrt_upper(x * x - K)
    s_minus_x, s_plus_x = -x + s, x + s
    minus, plus = np.abs(s_minus_x), np.abs(s_plus_x)
    # the branch not chosen can divide by an exact 0, e.g. x + s at E = -1e8
    with np.errstate(divide="ignore", invalid="ignore"):
        g = (2.0 / K) * s_minus_x
        return np.where(minus == plus, g,
                        np.where(minus > plus, 4.0 / (K * g), -2.0 / s_plus_x))


def free_forward_green(sp: SpectralPoint, model):
    """Forward (half-tree) Green's matrix of the free strip, diagonal (m, m).

    Valid at every eta >= 0: the diagonal is :func:`forward_roots` at A.
    """
    return np.diag(forward_roots(sp.z, model.a, model.K))


def full_diagonal(z, a, K, g):
    """Full-lattice diagonal at z (any shape) from the forward roots g there.

    A root vertex has K + 1 neighbors, so the forward matrices of all
    branches dress the diagonal: G(z) = [A - z - (K+1)/4 G0(z)]^{-1}.
    """
    return 1.0 / (np.subtract(a, np.expand_dims(z, -1)) - ((K + 1) / 4.0) * g)


def free_full_green(sp: SpectralPoint, model):
    """Full-lattice Green's matrix of the free strip, diagonal (m, m)."""
    return np.diag(full_diagonal(sp.z, model.a, model.K,
                                 forward_roots(sp.z, model.a, model.K)))


def a_e_matrix(E, model):
    """Diagonal matrix -G0(E)/4 parameterizing the real-axis free fixed point.

    A_E = -1/4 forward_roots(E, a, K), defined on band_intersection's closed
    window: entries (E - a_k - i sqrt(K - (E - a_k)^2)) / (2K), of modulus
    1/(2 sqrt K) exactly inside the window and within sqrt(ulp) at its
    endpoints, where the rounding of float(sqrt K) meets the square-root cusp.
    """
    window = band_intersection(model)
    if not window.lo <= E <= window.hi:  # NaN fails the inside test too
        raise OutOfBandError(
            f"E={E:g} lies outside the closed window [{window.lo:g}, {window.hi:g}]"
        )
    # -0.25 * g alone would turn a 0.0 real part into -0.0
    return np.diag(0.0 - 0.25 * forward_roots(complex(E), model.a, model.K))


def free_dos(sp_or_E, model):
    """Density of states per orbital of the free strip, (1/(m pi)) Im Tr G."""
    if not isinstance(sp_or_E, SpectralPoint):
        sp_or_E = SpectralPoint(float(sp_or_E))
    full = free_full_green(sp_or_E, model)
    return float(np.trace(full).imag / (model.m * np.pi))

