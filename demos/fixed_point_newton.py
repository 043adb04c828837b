"""Deterministic forward fixed point: Newton, and continuation to the real axis.

For a point-mass potential the forward recursion has a deterministic fixed
point G = [A + lam*V0 - z - (K/4) G]^{-1}.  This demo solves it by Newton's
method at a complex spectral point, then continues the solution down to the
real axis and shows how the dissipative (Herglotz) branch is tracked: each
eta level after the second starts from a secant predictor, the linear
extrapolation of the last two solutions, so most levels need only a few
Newton steps (or none).  The continuation is what makes the locally
convergent Newton corrector reach small eta.
"""

import numpy as np

from bethestrip import (BetheStripModel, PointMass, SpectralPoint,
                        continuation_to_boundary, solve_forward)

V0 = np.array([[0.3, 0.1], [0.1, -0.2]])
model = BetheStripModel(K=2, a=(-0.5, 0.5), lam=0.7, ensemble=PointMass(V0))

report = solve_forward(model, SpectralPoint(0.2, 0.2))
print(f"Newton solve at z = {report.z}: "
      f"{report.iterations} iterations, residual {report.residual:.2e}")
print("residual history (quadratic convergence near the root):")
for i, r in enumerate(report.residual_history):
    print(f"  step {i:2d}: {r:.3e}")
print(f"solution Herglotz (Im part positive definite): {report.herglotz}")
print()

print("continuation to the real axis at E = 0.2 (geometric eta schedule;")
print("from the third level on, each starts from the secant predictor")
print("G_k + r (G_k - G_{k-1}), r = 1/2, and r = 1 for the last step to eta = 0):")
reports = continuation_to_boundary(model, 0.2)
for i, rep in enumerate(reports):
    if i < 3 or i >= len(reports) - 3:
        g11 = rep.solution[0, 0]
        print(f"  eta = {rep.z.imag:10.3e}  G_11 = {g11.real:+.6f}{g11.imag:+.6f}i"
              f"  {rep.iterations:3d} iterations  residual {rep.residual:.1e}")
    elif i == 3:
        print("  ...")
final = reports[-1]
print(f"boundary solution reached with residual {final.residual:.2e}; "
      f"Herglotz: {final.herglotz}; "
      f"{sum(r.iterations for r in reports)} iterations over {len(reports)} levels")
print()

outside = continuation_to_boundary(model, 3.5)[-1]
print(f"outside the spectrum (E = 3.5) the boundary limit is real:")
print(f"  max |Im G| = {np.max(np.abs(outside.solution.imag)):.2e}, "
      f"Herglotz flag: {outside.herglotz}")
