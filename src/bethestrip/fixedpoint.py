"""Deterministic solution of the forward self-consistency equation.

For a point-mass potential (or ``lam == 0``) the forward Green's matrix of the
infinite tree solves G = [B - z - (K/4) G]^{-1}, with B = A + lam*V0 real
symmetric.  In B's eigenbasis, B = Q diag(b) Q^T, the equation splits into the
free scalar quadratic at each eigenvalue, and its dissipative solution
(Im G >= 0) is unique for eta > 0 (Helton, Rashidi Far & Speicher, IMRN 2007):
G = Q diag(g(b)) Q^T with g the free forward root, and its eta -> 0+ limit on
the real axis.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import UnsupportedEnsembleError
from .free import forward_roots
from .linalg import HERGLOTZ_SLACK, SpectralPoint, min_imag_eigenvalue, resolvent
from .model import BetheStripModel, PointMass

#: Continuation levels: eta = 1, 1/2, ..., 2^-26 (the last above 1e-8), then 0.
#: The benchmark's continuation workload checks one report per level.
ETA_SCHEDULE = tuple(0.5 ** k for k in range(27)) + (0.0,)


@lru_cache(maxsize=16)
def _onsite(model: BetheStripModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """B = A + lam*V0 and its eigendecomposition (b, Q), read-only, once per model."""
    B = model.a_matrix + (model.lam * model.ensemble.matrix if model.lam else 0.0)
    b, Q = np.linalg.eigh(B)
    for x in (B, b, Q):
        x.flags.writeable = False
    return B, b, Q


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
        if self.model.lam != 0.0 and not isinstance(self.model.ensemble, PointMass):
            raise UnsupportedEnsembleError(
                "deterministic fixed-point solver requires a point-mass "
                "potential or lam = 0; got "
                f"{self.model.ensemble.spec_string()} with lam={self.model.lam}"
            )

    def forward_map(self, G: np.ndarray) -> np.ndarray:
        """G -> [A + lam*V0 - z - (K/4) G]^{-1}: one resolvent call, any m or stack."""
        shifted = _onsite(self.model)[0] - self.point.z * np.eye(self.model.m)
        return resolvent(shifted, self.model.K * G)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one deterministic solve.

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


def solve_forward(model: BetheStripModel, point: SpectralPoint) -> SolveReport:
    """The dissipative fixed point G = Q diag(g(b)) Q^T at ``point``, eta = 0 included.

    g is :func:`free.forward_roots` at the eigenvalues b of A + lam*V0, so at
    eta = 0 G is the real-axis limit: real outside the spectrum and at its
    edges.  The report's residual is one map evaluation at G.
    """
    problem = FixedPointProblem(model, point)
    _, b, Q = _onsite(model)
    G = (Q * forward_roots(point.z, b, model.K)) @ Q.T
    return SolveReport(
        solution=G,
        residual=float(np.abs(G - problem.forward_map(G)).max()),
        z=point.z,
        min_imag_eig=min_imag_eigenvalue(G),
    )


def continuation_to_boundary(model: BetheStripModel, E: float) -> list[SolveReport]:
    """solve_forward at E + i eta for each eta of ETA_SCHEDULE, down to eta = 0.

    The final boundary report may legitimately carry ``herglotz=False``:
    outside the spectrum the boundary solution is real.
    """
    return [solve_forward(model, SpectralPoint(E, eta)) for eta in ETA_SCHEDULE]
