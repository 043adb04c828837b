"""Deterministic solver for the forward self-consistency equation.

For a point-mass potential (or ``lam == 0``) the forward Green's matrix
of the infinite tree satisfies the matrix equation

    G = [A + lam*V0 - z - (K/4) G]^{-1},

a finite-dimensional fixed-point problem on complex symmetric m x m
matrices.  :func:`solve_forward` solves it by Newton's method on vec(G),
evaluating the map once per iterate.  Newton converges only near a root;
:func:`continuation_to_boundary` is its globalization, a predictor-corrector
continuation in the spectral parameter from eta = 1 down to the real axis
along the dissipative branch Im G >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    ContinuationBreakdownError,
    NoConvergenceError,
    SingularJacobianError,
    SingularMatrixError,
    UnsupportedEnsembleError,
)
from .free import free_forward_green
from .linalg import (HERGLOTZ_SLACK, SpectralPoint, min_imag_eigenvalue,
                     resolvent, sym_part)
from .model import BetheStripModel, PointMass

#: Residual tolerance (max-norm of G - map(G)) for a converged solve.
SOLVE_TOL = 1e-11
#: A boundary (eta = 0) solution counts as dissipative only if every
#: eigenvalue of Im G clears this floor.  At a band edge the fixed point is a
#: double root, so a solve stopped at SOLVE_TOL leaves an error (and a spurious
#: Im G) of order sqrt(SOLVE_TOL); the floor sits a decade above it.
BOUNDARY_IMAG_FLOOR = 10 * SOLVE_TOL ** 0.5

DEFAULT_NEWTON_MAX_ITER = 60

#: Continuation levels: eta = 1, 1/2, ..., 2^-26 (the last above 1e-8), then 0.
ETA_SCHEDULE = tuple(0.5 ** k for k in range(27)) + (0.0,)


@lru_cache(maxsize=16)
def _onsite(model: BetheStripModel) -> np.ndarray:
    """A + lam*V0 (read-only), the block free of z: built once per model."""
    B = model.a_matrix + (model.lam * model.ensemble.matrix if model.lam else 0.0)
    B.flags.writeable = False
    return B


@dataclass(frozen=True)
class FixedPointProblem:
    """One instance of the deterministic self-consistency equation.

    Only ensembles for which the forward law is a point mass admit a
    deterministic fixed point: a :class:`PointMass` potential, or any
    ensemble at ``lam == 0`` (where the potential drops out).
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

    @cached_property
    def _shifted_onsite(self) -> np.ndarray:
        """A + lam*V0 - z: the model's on-site block, shifted on its diagonal."""
        B = _onsite(self.model).astype(complex)
        B.flat[::self.model.m + 1] -= self.point.z
        return B

    def forward_map(self, G: np.ndarray) -> np.ndarray:
        """G -> [A + lam*V0 - z - (K/4) G]^{-1}: one resolvent call, any m or stack."""
        return resolvent(self._shifted_onsite, self.model.K * G)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one deterministic solve.

    ``residual_history[i]`` is max|G - map(G)| at iterate i, so it holds
    ``iterations + 1`` entries; ``residual`` is the last one, at the
    returned solution, and is at most the solve's ``tol`` (a solve that
    does not converge raises).  ``min_imag_eig`` is min eig(Im G) at the
    solution, computed once per solve.
    """

    solution: np.ndarray
    residual: float
    iterations: int
    z: complex
    min_imag_eig: float
    residual_history: tuple = ()

    @property
    def herglotz(self) -> bool:
        """min eig(Im G) clears BOUNDARY_IMAG_FLOOR; real boundary solutions fail."""
        return self.min_imag_eig > BOUNDARY_IMAG_FLOOR


def _jacobian(problem: FixedPointProblem, Phi: np.ndarray) -> np.ndarray:
    """Exact Jacobian I - (K/4) Phi (x) Phi of R(G) = G - map(G) on vec(G).

    d map(G)[dG] = (K/4) Phi dG Phi with Phi = map(G), by the derivative of
    the matrix inverse; vec is row-major and Phi is symmetric.  The map
    X -> Phi X Phi preserves symmetric and skew matrices, and its skew
    eigenvalues phi_i phi_j (i < j, phi the eigenvalues of Phi) are among
    its symmetric ones (i <= j).  So this m^2 x m^2 system is singular
    exactly when its restriction to symmetric dG is, and for a symmetric
    residual its solution is the symmetric Newton step.
    """
    m = len(Phi)
    outer = (Phi[:, None, :, None] * Phi[None, :, None, :]).reshape(m * m, m * m)
    return np.eye(m * m) - 0.25 * problem.model.K * outer


def solve_forward(model: BetheStripModel, point: SpectralPoint,
                  initial: np.ndarray | None = None) -> SolveReport:
    """Newton's method on vec(G) for G = map(G), from the first iterate on.

    One loop evaluates Phi = map(G) once per iterate and stops as soon as
    max|G - Phi| <= SOLVE_TOL, after at most DEFAULT_NEWTON_MAX_ITER steps
    (module constants, read at call time).  The iterate starts from the
    symmetric part of ``initial`` (an m x m array; a new array, so the report
    never aliases it), else from the lam = 0 closed form at ``point``.  At
    eta > 0 a root off the dissipative branch (min eig Im G < -HERGLOTZ_SLACK)
    raises NoConvergenceError: Newton converges only locally, so small eta is
    reached by continuation_to_boundary or from a warm start.
    """
    problem = FixedPointProblem(model, point)
    if initial is None:
        G = free_forward_green(point, model)
    else:
        if np.shape(initial) != (model.m, model.m):
            raise ValueError(f"initial guess has shape {np.shape(initial)}, "
                             f"expected {(model.m, model.m)}")
        # every step is symmetric, so a skew part of the start would stay
        G = sym_part(np.asarray(initial, dtype=complex))
    history = []
    for steps in range(DEFAULT_NEWTON_MAX_ITER + 1):
        Phi = problem.forward_map(G)
        R = G - Phi
        residual = float(np.abs(R).max())
        history.append(residual)
        if residual <= SOLVE_TOL:
            break
        if steps == DEFAULT_NEWTON_MAX_ITER:
            raise NoConvergenceError(
                f"Newton did not reach SOLVE_TOL={SOLVE_TOL} in {steps} "
                f"steps at z={point.z} (last residual {residual:.3e})",
                residual=residual,
                iterations=steps,
            )
        try:
            step = np.linalg.solve(_jacobian(problem, Phi), -R.ravel())
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(
                f"singular Newton Jacobian at z={point.z} "
                f"(residual {residual:.3e})"
            ) from exc
        if not np.isfinite(step).all():
            raise SingularJacobianError(
                f"non-finite Newton step at z={point.z}"
            )
        G = G + sym_part(step.reshape(G.shape))
    min_imag_eig = min_imag_eigenvalue(G)
    if point.eta > 0.0 and min_imag_eig < -HERGLOTZ_SLACK:
        raise NoConvergenceError(
            f"Newton converged off the dissipative branch at z={point.z}: "
            f"min eig(Im G) = {min_imag_eig:.3e}; reach small eta through "
            "continuation_to_boundary or a warm start",
            residual=residual,
            iterations=steps,
        )
    return SolveReport(
        solution=G,
        residual=residual,
        iterations=steps,
        z=point.z,
        min_imag_eig=min_imag_eig,
        residual_history=tuple(history),
    )


def continuation_to_boundary(model: BetheStripModel, E: float) -> list[SolveReport]:
    """Newton's globalization: track the dissipative root down ETA_SCHEDULE to eta = 0.

    Level 0 starts from the free closed form, level 1 from its solution,
    level k >= 2 from the secant predictor G + r (G - G'), G and G' solving
    levels k-1 and k-2, r = (eta_k - eta_{k-1})/(eta_{k-1} - eta_{k-2});
    solve_forward takes its symmetric part.  Any solver failure, leaving the
    dissipative branch at eta > 0 included, raises ContinuationBreakdownError
    tagged with the failing eta.  The final boundary report may legitimately
    carry ``herglotz=False``: outside the spectrum the boundary solution is real.
    """
    reports: list[SolveReport] = []
    for k, eta in enumerate(ETA_SCHEDULE):
        guess = reports[-1].solution if reports else None
        if k >= 2:  # r = 1/2 on the geometric schedule, 1 for the step to eta = 0
            G0, (e0, e1) = reports[-2].solution, ETA_SCHEDULE[k - 2:k]
            guess = guess + (eta - e1) / (e1 - e0) * (guess - G0)
        point = SpectralPoint(E, eta)
        try:
            reports.append(solve_forward(model, point, guess))
        except (NoConvergenceError, SingularJacobianError,
                SingularMatrixError) as exc:
            raise ContinuationBreakdownError(
                f"continuation failed at eta={eta}: {exc}", eta=eta
            ) from exc
    return reports
