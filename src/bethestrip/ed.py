"""Direct solves on truncated trees.

Independent reference path for the Green's function recursions: assemble the
strip operator on a depth-L truncated tree as a sparse matrix, factorize
(H - z) with a generic sparse LU, and read off Green's function columns.
Nothing here shares code with the leaf-to-root elimination in
:mod:`bethestrip.recursion`; agreement between the two is a real check.

The operator is in the site-major layout dof = site * m + orbital, on a CSC
pattern built once per tree.  Stored zeros (off-diagonals of diagonal or lam = 0
blocks) are dropped before LU, as SuperLU orders and pivots by the stored pattern.
Columns are ordered by minimum degree on A^T + A, the ordering meant for
structurally symmetric matrices such as this one, and faster here than COLAMD.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import SizeOverflowError
from .linalg import SpectralPoint
from .rng import TAG_REALIZATION, keyed_rng

# hard cap on m * |sites| for sparse solves, and on the dense eigenproblem
MAX_DOF = 200_000
MAX_DENSE_DOF = 5_000


@dataclass(frozen=True)
class TruncatedTree:
    """Rooted tree with K+1 branches at the root and K thereafter."""

    K: int
    depth: int
    parents: np.ndarray = field(repr=False)  # parents[0] == -1
    depth_of: np.ndarray = field(repr=False)

    @property
    def n_sites(self) -> int:
        return len(self.parents)

    def edges(self):
        i = np.arange(1, self.n_sites)
        return np.column_stack([self.parents[1:], i])


def tree_site_count(K, depth) -> int:
    if K < 2 or depth < 0:
        raise ValueError(f"need K >= 2 and depth >= 0, got K={K}, depth={depth}")
    return 1 + (K + 1) * (K**depth - 1) // (K - 1)


def build_tree(K, depth, m=1) -> TruncatedTree:
    """Breadth-first truncated tree; raises SizeOverflowError beyond MAX_DOF."""
    n = tree_site_count(K, depth)
    if m * n > MAX_DOF:
        raise SizeOverflowError(
            f"m * |sites| = {m * n} exceeds the {MAX_DOF} direct-solve cap"
        )
    # level d >= 1 holds (K+1) K^(d-1) sites; the root has K+1 children, the rest K
    sizes = [1] + [(K + 1) * K ** (d - 1) for d in range(1, depth + 1)]
    depth_of = np.repeat(np.arange(depth + 1, dtype=np.int64), sizes)
    fanout = np.full(n - sizes[-1], K)
    fanout[:1] = K + 1
    parents = np.concatenate([[-1], np.repeat(np.arange(n - sizes[-1]), fanout)])
    return TruncatedTree(K=K, depth=depth, parents=parents, depth_of=depth_of)


def draw_site_potentials(model, tree, seed, realization=0):
    """Disorder realization: one stream keyed (seed, realization), row s is site s.

    Sites are drawn in BFS order, so a shallower tree's potentials are the
    first rows of any deeper tree's.  The recursion engine draws from the same
    stream, so both solvers see bit-identical potentials for a given key.
    """
    rng = keyed_rng(seed, TAG_REALIZATION, realization)
    return model.ensemble.sample_batch(model.m, rng, tree.n_sites)


def _operators(tree, model, potentials, z=0.0):
    """(H - z) as CSC, stored zeros dropped, per realization in ``potentials``."""
    import scipy.sparse  # here, so that importing the package skips scipy.sparse
    n, m = tree.n_sites, model.m
    if m * n > MAX_DOF:
        raise SizeOverflowError(f"{m * n} degrees of freedom exceed {MAX_DOF}")
    orb = np.arange(m)
    base = m * np.arange(n)[:, None, None]
    r, k = np.broadcast_arrays(base + orb[:, None], base + orb)  # (n, m, m)
    p, c = (m * tree.edges()[:, :, None] + orb).transpose(1, 0, 2)  # (n-1, m)
    rows = np.concatenate([r.ravel(), p.ravel(), c.ravel()])
    cols = np.concatenate([k.ravel(), c.ravel(), p.ravel()])
    order = np.lexsort((rows, cols))  # blocks, then edges, to CSC order
    indices, indptr = rows[order], np.searchsorted(cols[order], np.arange(n * m + 1))
    for V in potentials.reshape(-1, n, m, m):
        blocks = (model.a_matrix + model.lam * V) - z * np.eye(m)
        data = np.concatenate([blocks.ravel(), np.full(2 * p.size, 0.5)])[order]
        # copy: eliminate_zeros works in place, and the pattern is shared
        H = scipy.sparse.csc_matrix((data, indices, indptr), (n * m, n * m), copy=True)
        H.eliminate_zeros()  # a stored zero would change SuperLU's pattern
        yield H


def assemble_operator(tree, model, potentials):
    """Sparse real symmetric strip operator on the truncated tree, as CSC.

    Diagonal blocks A + lam V(x); hopping blocks I_m / 2 on tree edges.
    """
    return next(_operators(tree, model, potentials))


def root_green_block(sp: SpectralPoint, model, tree, potentials):
    """The m x m root Green's block, one LU for all m columns, per realization."""
    from scipy.sparse.linalg import splu
    m = model.m
    rhs = np.zeros((tree.n_sites * m, m), dtype=complex)
    rhs[np.arange(m), np.arange(m)] = 1.0
    roots = [splu(H, permc_spec="MMD_AT_PLUS_A").solve(rhs)[:m].copy()
             for H in _operators(tree, model, potentials, sp.z)]
    return np.reshape(roots, potentials.shape[:-3] + (m, m))


def dos_histogram(tree, model, E_grid, eta, realizations, seed):
    """Smeared eigenvalue density per orbital, averaged over realizations.

    Dense eigvalsh per realization (independent of any Green recursion),
    Cauchy kernel of width eta on the given energy grid.  Returns
    (dos_mean, dos_se) arrays over the grid.
    """
    if eta <= 0 or realizations < 1:
        raise ValueError(f"need eta > 0, realizations >= 1: got {eta}, {realizations}")
    dof = tree.n_sites * model.m
    if dof > MAX_DENSE_DOF:
        raise SizeOverflowError(f"{dof} dof too large for the dense eigensolver")
    E_grid = np.asarray(E_grid, dtype=float)
    per_real = np.empty((realizations, len(E_grid)))
    for r in range(realizations):
        potentials = draw_site_potentials(model, tree, seed, realization=r)
        H = assemble_operator(tree, model, potentials).toarray()
        evals = np.linalg.eigvalsh(H)
        kern = eta / np.pi / ((E_grid[:, None] - evals[None, :]) ** 2 + eta**2)
        per_real[r] = kern.sum(axis=1) / dof
    mean = per_real.mean(axis=0)
    se = per_real.std(axis=0, ddof=1) / np.sqrt(realizations) if realizations > 1 else np.zeros_like(mean)
    return mean, se
