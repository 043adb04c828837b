"""Closed forms of the disorder-free strip: bands, Green's functions, DOS.

Walks through the quantities the rest of the package is checked against:
the per-orbital spectral bands, the forward and full Green's matrices on the
real axis, and the density of states, all from explicit formulas.
"""

import numpy as np

from bethestrip import (BetheStripModel, GOE, SpectralPoint, a_e_matrix,
                        band_intersection, free_dos, free_forward_green,
                        free_full_green)

model = BetheStripModel(K=2, a=(-0.5, 0.5), lam=0.0, ensemble=GOE())
window = band_intersection(model)

print(f"strip: K = {model.K}, orbitals a = {model.a}")
print(f"each orbital contributes a band a_k +/- sqrt(K) = a_k +/- {model.sqrt_k:.4f}")
print(f"common band window: {window}")
print()

print("real-axis profile (eta -> 0+ limits are valid at every real energy):")
print(f"{'E':>6} {'Im g0_1':>9} {'Im g0_2':>9} {'dos':>8}   note")
for E in np.linspace(-2.5, 2.5, 11):
    g0 = np.diagonal(free_forward_green(SpectralPoint(float(E), 0.0), model))
    dos = free_dos(float(E), model)
    inside = window.contains(float(E))
    note = "inside common window" if inside else (
        "outside" if dos < 1e-12 else "single band")
    print(f"{E:6.2f} {g0[0].imag:9.4f} {g0[1].imag:9.4f} {dos:8.4f}   {note}")
print()

E = 0.25
ae = np.diagonal(a_e_matrix(E, model))
print(f"at E = {E} the boundary fixed point is parameterized by a diagonal")
print(f"matrix with entries of constant modulus 1/(2 sqrt K) = {1 / (2 * model.sqrt_k):.6f}:")
for k, v in enumerate(ae, start=1):
    print(f"  orbital {k}: {v:.6f}  (modulus {abs(v):.6f})")
print()

gf = np.diagonal(free_full_green(SpectralPoint(E, 0.0), model))
print("full-lattice Green's diagonal at the same energy (root has K+1 branches):")
for k, v in enumerate(gf, start=1):
    print(f"  orbital {k}: {v:.6f}")
print()

grid = np.linspace(-2.5, 2.5, 201)
mass = np.trapezoid([free_dos(float(x), model) for x in grid], grid)
print(f"the dos integrates to {mass:.4f} over [{grid[0]}, {grid[-1]}] "
      "(all spectral mass lies in the union of bands)")
