"""Deterministic forward fixed point: the closed form, and its path to the real axis.

For a point-mass potential the forward recursion has a deterministic fixed
point G = [B - z - (K/4) G]^{-1} with B = A + lam*V0 real symmetric.  In B's
eigenbasis the equation splits into the free scalar quadratic at each
eigenvalue b, so the dissipative solution (Im G positive definite for
eta > 0) is G = Q diag(g(b)) Q^T with g the free forward root.  This demo
solves it at a complex spectral point, follows it down the eta schedule to
the real axis, and shows that outside the spectrum the boundary limit is real.
"""

import numpy as np

from bethestrip import (BetheStripModel, PointMass, SpectralPoint,
                        continuation_to_boundary, solve_forward)

V0 = np.array([[0.3, 0.1], [0.1, -0.2]])
model = BetheStripModel(K=2, a=(-0.5, 0.5), lam=0.7, ensemble=PointMass(V0))
B = np.diag(model.a) + model.lam * V0
print(f"eigenvalues of B = A + lam*V0: {np.linalg.eigvalsh(B)}")

report = solve_forward(model, SpectralPoint(0.2, 0.2))
print(f"closed-form solve at z = {report.z}: "
      f"residual max|G - map(G)| = {report.residual:.2e}")
print(f"min eig Im G = {report.min_imag_eig:.4f}; "
      f"Herglotz (Im part positive definite): {report.herglotz}")
print()

print("the solution along eta = 1, 1/2, ..., 2^-26, 0 at E = 0.2:")
reports = continuation_to_boundary(model, 0.2)
for i, rep in enumerate(reports):
    if i < 3 or i >= len(reports) - 3:
        g11 = rep.solution[0, 0]
        print(f"  eta = {rep.z.imag:10.3e}  G_11 = {g11.real:+.6f}{g11.imag:+.6f}i"
              f"  min eig Im G {rep.min_imag_eig:.2e}  residual {rep.residual:.1e}")
    elif i == 3:
        print("  ...")
final = reports[-1]
print(f"boundary solution (eta -> 0+ limit) with residual {final.residual:.2e}; "
      f"Herglotz: {final.herglotz}")
print()

outside = continuation_to_boundary(model, 3.5)[-1]
print("outside the spectrum (E = 3.5) the boundary limit is real:")
print(f"  max |Im G| = {np.max(np.abs(outside.solution.imag)):.2e}, "
      f"Herglotz flag: {outside.herglotz}")
