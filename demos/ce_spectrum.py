"""Spectrum of the linearized transfer operator and its gap across the band.

The operator acting on (polynomial x Gaussian) symbols is triangular in the
monomial degree filtration; its eigenvalues are indexed by integer matrices J
and have modulus exactly K^(-|J|).  The distance of K*lambda_J from 1 is the
quantity that controls solvability of the linearized equations; it is
positive inside the band window and closes at the edges.
"""

import numpy as np

from bethestrip import (BetheStripModel, GOE, band_intersection,
                        build_ce_matrix, enumerate_indices, gap_kce, lambda_j)

model = BetheStripModel(K=2, a=(-0.3, 0.3), lam=0.0, ensemble=GOE())
E = 0.25

print(f"eigenvalues at E = {E} (K = {model.K}, a = {model.a}), degree <= 2:")
print(f"{'J':>12} {'lambda_J':>22} {'|lambda_J|':>11} {'K^-|J|':>8}")
for J in enumerate_indices(model.m, 2):
    val = lambda_j(E, model, J)
    print(f"{':'.join(map(str, J)):>12} {val:22.6f} {abs(val):11.6f} "
          f"{model.K ** (-sum(J)):8.4f}")
print()

op = build_ce_matrix(E, model, 2)
lower = max(abs(op.entries[r, c])
            for r in range(len(op.basis)) for c in range(len(op.basis))
            if sum(op.basis[r]) > sum(op.basis[c]))
print(f"matrix on the degree <= 2 basis ({len(op.basis)} monomials) is")
print(f"triangular in the degree filtration: max lower-block entry {lower:.1e}")
print()

window = band_intersection(model)
print(f"gap min(|K*lambda_J - 1|, 1 - 1/K) across the window {window}:")
for E in np.linspace(window.lo + 0.02, window.hi - 0.02, 9):
    g = gap_kce(float(E), model, 2)
    print(f"  E = {E:6.3f}   gap = {g:.4f}  {'#' * int(round(40 * g))}")
print()

edge = window.hi
print("approaching the upper edge the gap closes like a square root:")
for delta in (1e-2, 1e-4, 1e-6):
    g = gap_kce(edge - delta, model, 2)
    print(f"  edge - {delta:7.0e}: gap = {g:.6f}  "
          f"(gap/sqrt(delta) = {g / np.sqrt(delta):.3f})")
