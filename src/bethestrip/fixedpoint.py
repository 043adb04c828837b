"""Deterministic solution of the forward self-consistency equation.

For a point-mass potential (or ``lam == 0``) the forward Green's matrix of the
infinite tree solves G = [B - z - (K/4) G]^{-1}, with B = A + lam*V0 real
symmetric.  In B's eigenbasis, B = Q diag(b) Q^T, the equation splits into the
free scalar quadratic at each eigenvalue, and its dissipative solution
(Im G >= 0) is unique for eta > 0 (Helton, Rashidi Far & Speicher, IMRN 2007):
G = Q diag(g(b)) Q^T with g the free forward root, and its eta -> 0+ limit on
the real axis.  A continuation is one batched evaluation over all its levels.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import UnsupportedEnsembleError
from .free import forward_roots
from .linalg import HERGLOTZ_SLACK, SpectralPoint, _imag_floor, resolvent
from .model import BetheStripModel, PointMass

#: Continuation levels: eta = 1, 1/2, ..., 2^-26 (the last above 1e-8), then 0.
#: The benchmark's continuation workload checks one report per level.
ETA_SCHEDULE = tuple(0.5 ** k for k in range(27)) + (0.0,)


@lru_cache(maxsize=16)
def _onsite(model: BetheStripModel) -> tuple[np.ndarray, ...]:
    """A, V0 (zeros at lam = 0) and the eigendecomposition (b, Q) of B = A + lam*V0,
    read-only, once per model."""
    if model.lam != 0.0 and not isinstance(model.ensemble, PointMass):
        raise UnsupportedEnsembleError(
            "deterministic fixed-point solver requires a point-mass "
            "potential or lam = 0; got "
            f"{model.ensemble.spec_string()} with lam={model.lam}"
        )
    A = model.a_matrix
    V0 = model.ensemble.matrix if model.lam else np.zeros_like(A)
    b, Q = np.linalg.eigh(A + model.lam * V0)
    for x in (A, V0, b, Q):
        x.flags.writeable = False
    return A, V0, b, Q


def _forward_map(model: BetheStripModel, z, G: np.ndarray) -> np.ndarray:
    """G -> [A + lam*V0 - z - (K/4) G]^{-1}, z one value or one per member of G."""
    A, V0, _, _ = _onsite(model)
    return resolvent(A, model.K * G, V0, model.lam, z)


@dataclass(frozen=True)
class FixedPointProblem:
    """One instance of the deterministic self-consistency equation.

    Only ensembles for which the forward law is a point mass admit a
    deterministic fixed point: a :class:`PointMass` potential, or any
    ensemble at ``lam == 0`` (where the potential drops out).  The
    benchmark's tracer wraps :meth:`forward_map` by name.
    """

    model: BetheStripModel
    point: SpectralPoint

    def __post_init__(self):
        _onsite(self.model)

    def forward_map(self, G: np.ndarray) -> np.ndarray:
        """G -> [A + lam*V0 - z - (K/4) G]^{-1}: one resolvent call, any m or stack."""
        return _forward_map(self.model, self.point.z, G)


@dataclass(frozen=True)
class SolveReport:
    """The deterministic solution at one z, one level of a batched evaluation.

    ``residual`` is max|G - map(G)| at the solution and ``min_imag_eig`` is
    min eig(Im G) there.  ``iterations`` is always 0, since the solution is a
    closed form; the benchmark's continuation workload still sums it.
    """

    solution: np.ndarray
    residual: float
    z: complex
    min_imag_eig: float
    iterations: int = 0

    @property
    def herglotz(self) -> bool:
        """min eig(Im G) clears HERGLOTZ_SLACK; real boundary solutions fail."""
        return self.min_imag_eig > HERGLOTZ_SLACK


def _solve(model: BetheStripModel, z: np.ndarray) -> list[SolveReport]:
    """One report per entry of the 1-d array z: G = Q diag(g(b)) Q^T as one
    stack, its residuals from one map call, its margins from one eigvalsh."""
    _, _, b, Q = _onsite(model)
    G = (Q * forward_roots(z, b, model.K)[:, None, :]) @ Q.T
    residual = np.abs(G - _forward_map(model, z, G)).max(axis=(1, 2))
    return [SolveReport(g, r, w, low) for g, r, w, low in
            zip(G, residual.tolist(), z.tolist(), _imag_floor(G).tolist())]


def solve_forward(model: BetheStripModel, point: SpectralPoint) -> SolveReport:
    """The dissipative fixed point G = Q diag(g(b)) Q^T at ``point``, eta = 0 included.

    g is :func:`free.forward_roots` at the eigenvalues b of A + lam*V0, so at
    eta = 0 G is the real-axis limit: real outside the spectrum and at its
    edges.  The report's residual is one map evaluation at G.
    """
    return _solve(model, np.array([point.z]))[0]


def continuation_to_boundary(model: BetheStripModel, E: float) -> list[SolveReport]:
    """The solution at E + i eta for every eta of ETA_SCHEDULE, in one evaluation.

    The final boundary report may legitimately carry ``herglotz=False``:
    outside the spectrum the boundary solution is real.
    """
    SpectralPoint(E)  # E must be finite; complex(E, eta) keeps the sign of -0.0
    return _solve(model, np.array([complex(E, eta) for eta in ETA_SCHEDULE]))
