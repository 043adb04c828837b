"""Two independent routes to the same Green's matrix, on shared disorder.

The forward recursion computes the root Green's block of a depth-limited
tree from the leaves up; the direct solve assembles the full operator for the
same tree and factors it with a sparse LU.  With the potentials drawn once and shared,
the two agree to machine precision -- and visibly disagree if the disorder
realizations are mismatched.
"""

import numpy as np

from bethestrip import (BetheStripModel, GOE, SpectralPoint, build_tree,
                        draw_site_potentials, root_green_block, sample_tree,
                        sample_tree_given, tree_site_count)

model = BetheStripModel(K=2, a=(-0.5, 0.5), lam=0.5, ensemble=GOE())
sp = SpectralPoint(0.3, 0.05)

print(f"model: K = {model.K}, a = {model.a}, lam = {model.lam}, z = {sp.z}")
print()
print(f"{'depth':>5} {'sites':>6} {'dof':>6} {'max |recursion - sparse LU|':>28}")
for depth in range(0, 6):
    tree = build_tree(model.K, depth, model.m)
    worst = 0.0
    for realization in range(10):
        pots = draw_site_potentials(model, tree, seed=7,
                                    realization=realization)
        recursed = sample_tree_given(sp, model, tree, pots)
        direct = root_green_block(sp, model, tree, pots)
        worst = max(worst, float(np.max(np.abs(recursed - direct))))
    dof = tree.n_sites * model.m
    print(f"{depth:5d} {tree.n_sites:6d} {dof:6d} {worst:28.3e}")
print()

tree = build_tree(model.K, 4, model.m)
same = sample_tree(sp, model, depth=4, seed=7)
direct_other = root_green_block(sp, model, tree,
                                draw_site_potentials(model, tree, seed=8))
print("negative control -- mismatched seeds no longer describe the same")
print(f"operator: max deviation {np.max(np.abs(same - direct_other)):.3e}")
