"""Population-dynamics density of states, checked against the closed form.

A pool of forward Green's matrices is resampled through the tree recursion
until stationary; root draws then estimate the density of states.  At zero
coupling the pool reproduces the free closed form exactly; with disorder the
bands broaden and the band edges smear.  Every energy runs on seed 0, so all
read the same draws and the curve's errors are correlated across E.
"""

import numpy as np

from bethestrip import (BetheStripModel, GOE, SpectralPoint, eta_continuation,
                        free_dos)

K, a, eta = 2, (-0.5, 0.5), 0.1
grid = np.linspace(-3.0, 3.0, 25)


def scan(lam):
    model = BetheStripModel(K=K, a=a, lam=lam, ensemble=GOE())
    out = []
    for E in grid:
        ms = eta_continuation(model, float(E), (eta,), pool_size=2000,
                              seed=0, burn_in=30,
                              measure_sweeps=10, draws_per_sweep=500)[0]
        out.append(ms.dos.mean)
    return np.asarray(out)


free_curve = np.array([free_dos(SpectralPoint(float(E), eta),
                                BetheStripModel(K=K, a=a, lam=0.0,
                                                ensemble=GOE()))
                       for E in grid])
clean = scan(0.0)
noisy = scan(0.5)

print(f"dos at eta = {eta}, K = {K}, a = {a}  (population pool of 2000)")
print(f"{'E':>6} {'closed form':>12} {'pool lam=0':>11} {'pool lam=0.5':>13}  profile")
peak = max(noisy.max(), free_curve.max())
for E, f, c, n in zip(grid, free_curve, clean, noisy):
    bar = "#" * int(round(24 * n / peak))
    print(f"{E:6.2f} {f:12.6f} {c:11.6f} {n:13.6f}  {bar}")

print()
print(f"max |pool - closed form| at lam = 0: {np.max(np.abs(clean - free_curve)):.2e}")
print(f"mass of the lam = 0.5 curve over the grid: "
      f"{np.trapezoid(noisy, grid):.3f} (broadened tails extend past +/-3)")
