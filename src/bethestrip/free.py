"""Closed forms for the disorder-free strip.

With a diagonal strip operator A the forward Green's matrix decouples per
orbital and solves the scalar quadratic (K/4) g^2 + (z - a_k) g + 1 = 0; the
physical root is the one in the upper half plane (for eta > 0) and the decay
root on the real axis.  Everything else here -- the full-lattice Green's
matrix, the real-axis boundary matrix, and the Gaussian characteristic
weights -- is a short formula on top of that root.
"""

from dataclasses import dataclass

import numpy as np

from .errors import OutOfBandError
from .linalg import SpectralPoint, require_psd, sqrt_upper
from .model import band_intersection


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
    if z.imag > 0:
        # exactly one root lies in the upper half plane (root product 4/K > 0)
        other = 4.0 / (K * g)
        g = np.where(g.imag > 0, g, other)
    return g


def free_forward_green(sp: SpectralPoint, model):
    """Forward (half-tree) Green's matrix of the free strip, diagonal (m, m).

    At eta = 0 the energy must lie strictly inside every shifted band
    |E - a_k| < sqrt(K); otherwise OutOfBandError.  Use
    :func:`free_forward_green_boundary` for the real-axis limit valid at all
    real energies.
    """
    if sp.eta == 0.0:
        gap = model.sqrt_k - np.max(np.abs(sp.E - np.asarray(model.a)))
        if gap <= 0.0:
            raise OutOfBandError(
                f"E={sp.E:g} is outside a free band (closest edge {gap:g})"
            )
    g = _forward_diag(complex(sp.z), model.a, model.K)
    return np.diag(g)


def free_forward_green_boundary(E, model):
    """Real-axis (eta -> 0+) limit of the forward Green's matrix, any real E.

    Inside a band the limit is complex with positive imaginary part; outside
    it is the real decaying branch; at band edges the two meet continuously.
    """
    x = float(E) - np.asarray(model.a, dtype=float)
    w = x * x - model.K
    inside = w < 0.0
    g = np.empty(model.m, dtype=complex)
    g[inside] = (2.0 / model.K) * (-x[inside] + 1j * np.sqrt(-w[inside]))
    out = ~inside
    g[out] = (2.0 / model.K) * (-x[out] + np.sign(x[out]) * np.sqrt(w[out]))
    return np.diag(g)


def _full_from_forward(z, a, K, g_fwd):
    denom = np.asarray(a, dtype=complex) - z - ((K + 1) / 4.0) * g_fwd
    return 1.0 / denom


def free_full_green(sp: SpectralPoint, model):
    """Full-lattice Green's matrix of the free strip, diagonal (m, m).

    A root vertex has K + 1 neighbors, so the forward matrices of all
    branches dress the diagonal: G(z) = [A - z - (K+1)/4 G0(z)]^{-1}.
    """
    g_fwd = np.diagonal(free_forward_green(sp, model))
    return np.diag(_full_from_forward(complex(sp.z), model.a, model.K, g_fwd))


def free_full_green_boundary(E, model):
    """Real-axis limit of the full Green's matrix, valid at all real E."""
    g_fwd = np.diagonal(free_forward_green_boundary(E, model))
    return np.diag(_full_from_forward(complex(E), model.a, model.K, g_fwd))


def a_e_matrix(E, model):
    """Diagonal matrix -G0(E)/4 parameterizing the real-axis free fixed point.

    Entries (E - a_k - i sqrt(K - (E - a_k)^2)) / (2K), each of modulus
    1/(2 sqrt K).  Defined for |E - a_k| <= sqrt(K) for every orbital, i.e.
    on the closure of the band intersection window.
    """
    x = float(E) - np.asarray(model.a, dtype=float)
    w = model.K - x * x
    if np.any(w < 0.0):
        raise OutOfBandError(
            f"E={E:g} leaves |E - a_k| <= sqrt(K) for some orbital"
        )
    return np.diag((x - 1j * np.sqrt(w)) / (2.0 * model.K))


def free_dos(sp_or_E, model):
    """Density of states per orbital of the free strip, (1/(m pi)) Im Tr G."""
    if isinstance(sp_or_E, SpectralPoint) and sp_or_E.eta > 0.0:
        full = free_full_green(sp_or_E, model)
    else:
        E = sp_or_E.E if isinstance(sp_or_E, SpectralPoint) else float(sp_or_E)
        full = free_full_green_boundary(E, model)
    return float(np.trace(full).imag / (model.m * np.pi))


def free_char_weight(sp: SpectralPoint, model, M):
    """exp((i/4) Tr(G0 M)) for PSD symmetric M: the free characteristic weight.

    This is the Gaussian fixed-point value of the disorder-averaged
    characteristic function of the forward Green's matrix; at lam = 0 the
    average is the deterministic free value.
    """
    M = require_psd(M, "M")
    g = np.diagonal(free_forward_green(sp, model))
    return complex(np.exp(0.25j * np.sum(g * np.diagonal(M))))


def free_pair_char_weight(sp: SpectralPoint, model, Mp, Mm):
    """exp((i/4)(Tr(G0 Mp) - Tr(conj(G0) Mm))), the two-sided free weight.

    The pair weight factorizes into a holomorphic and an anti-holomorphic
    free factor; its boundary behavior is what separates point spectrum from
    absolutely continuous spectrum.
    """
    Mp = require_psd(Mp, "Mp")
    Mm = require_psd(Mm, "Mm")
    g = np.diagonal(free_forward_green(sp, model))
    t = np.sum(g * np.diagonal(Mp)) - np.sum(np.conj(g) * np.diagonal(Mm))
    return complex(np.exp(0.25j * t))


@dataclass(frozen=True)
class FreeSolution:
    """Bundle of the free closed forms at one spectral point."""

    point: SpectralPoint
    forward: np.ndarray
    full: np.ndarray
    boundary: np.ndarray = None  # -G0/4, present only at eta == 0 in-window


def free_solution(sp: SpectralPoint, model) -> FreeSolution:
    fwd = free_forward_green(sp, model)
    full = free_full_green(sp, model)
    boundary = None
    if sp.eta == 0.0 and band_intersection(model).contains(sp.E):
        boundary = a_e_matrix(sp.E, model)
    return FreeSolution(sp, fwd, full, boundary)
