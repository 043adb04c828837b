"""Direct solves on truncated trees.

Independent reference path for the Green's function recursions: assemble the
strip operator on a depth-L truncated tree as a sparse matrix, factorize
(H - z) with a generic sparse LU, and read off Green's function columns.
Nothing here shares code with the leaf-to-root elimination in
:mod:`bethestrip.recursion`; agreement between the two is a real check.

The operator puts site s in block slot n - 1 - s, root last, on one CSC
pattern per call without the entries zero in every realization.  The solves
factorize in that natural order: a tree eliminated leaves first fills no new
block (Parter 1961; Rose 1970), so no minimum-degree pass runs; supernodes and
panels are one column, as blocks are m x m.  Pivots are by threshold 0.1
(Duff, Erisman & Reid): a diagonal of at least 0.1 of its column is kept, as
nearly all are at eta > 0, where every Schur complement S has -Im S >= eta I.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import SizeOverflowError
from .linalg import SpectralPoint
from .rng import TAG_REALIZATION, keyed_rng

# hard cap on m * |sites| for sparse solves, and on the dense eigenproblem
MAX_DOF = 200_000
MAX_DENSE_DOF = 5_000
_SPLU_OPTIONS = dict(permc_spec="NATURAL", diag_pivot_thresh=0.1, relax=1, panel_size=1)


@dataclass(frozen=True)
class TruncatedTree:
    """Rooted tree with K+1 branches at the root and K thereafter."""

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
    # over 2^d sites at depth d: past the cap's bit length, K^depth is not formed
    n = tree_site_count(K, min(depth, MAX_DOF.bit_length()))
    if m * n > MAX_DOF:
        raise SizeOverflowError(f"a depth-{depth} tree of width {m} exceeds the "
                                f"{MAX_DOF}-dof direct-solve cap")
    # level d >= 1 holds (K+1) K^(d-1) sites; the root has K+1 children, the rest K
    sizes = [1] + [(K + 1) * K ** (d - 1) for d in range(1, depth + 1)]
    depth_of = np.repeat(np.arange(depth + 1, dtype=np.int64), sizes)
    fanout = np.full(n - sizes[-1], K)
    fanout[:1] = K + 1
    parents = np.concatenate([[-1], np.repeat(np.arange(n - sizes[-1]), fanout)])
    return TruncatedTree(depth=depth, parents=parents, depth_of=depth_of)


def draw_site_potentials(model, tree, seed, realization=0):
    """Disorder realization: one stream keyed (seed, realization), row s is site s.

    Sites are drawn in BFS order, so a shallower tree's potentials are the
    first rows of any deeper tree's.  The recursion engine draws from the same
    stream, so both solvers see bit-identical potentials for a given key.
    """
    rng = keyed_rng(seed, TAG_REALIZATION, realization)
    return model.ensemble.sample_batch(model.m, rng, tree.n_sites)


def _operators(tree, model, potentials, z=0.0):
    """(H - z) as CSC per realization, root block last, on one pattern without
    the entries zero in all."""
    import scipy.sparse  # here, so that importing the package skips scipy.sparse
    n, m = tree.n_sites, model.m
    orb = np.arange(m)
    slot = n - 1 - np.arange(n)  # site s's block
    base = m * slot[:, None, None]
    r, k = np.broadcast_arrays(base + orb[:, None], base + orb)  # (n, m, m)
    p, c = (m * slot[tree.edges()][:, :, None] + orb).transpose(1, 0, 2)  # (n-1, m)
    rows = np.concatenate([r.ravel(), p.ravel(), c.ravel()])
    cols = np.concatenate([k.ravel(), c.ravel(), p.ravel()])
    zI = z * np.eye(m)
    AV = model.a_matrix + model.lam * potentials.reshape(-1, n, m, m)
    zero = np.all(AV == zI.real, axis=0) & (zI.imag == 0)  # zero in all realizations
    order = np.lexsort((rows, cols))  # blocks, then edges, to CSC order
    order = order[np.append(~zero, np.ones(2 * p.size, dtype=bool))[order]]
    indices, indptr = rows[order], np.searchsorted(cols[order], np.arange(n * m + 1))
    for AVr in AV:
        data = np.concatenate([(AVr - zI).ravel(), np.full(2 * p.size, 0.5)])[order]
        yield scipy.sparse.csc_matrix((data, indices, indptr), (n * m, n * m))


def root_green_block(sp: SpectralPoint, model, tree, potentials):
    """The m x m root Green's block, one LU for all m columns, per realization."""
    from scipy.sparse.linalg import splu
    m, N = model.m, tree.n_sites * model.m
    if N > MAX_DOF:
        raise SizeOverflowError(f"{N} degrees of freedom exceed {MAX_DOF}")
    rhs = np.eye(N, m, m - N, dtype=complex)  # the root's columns, the last m
    roots = [splu(H, **_SPLU_OPTIONS).solve(rhs)[-m:].copy()
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
    potentials = np.stack([draw_site_potentials(model, tree, seed, realization=r)
                           for r in range(realizations)])
    for r, H in enumerate(_operators(tree, model, potentials)):
        evals = np.linalg.eigvalsh(H.toarray())
        kern = eta / np.pi / ((E_grid[:, None] - evals[None, :]) ** 2 + eta**2)
        per_real[r] = kern.sum(axis=1) / dof
    mean = per_real.mean(axis=0)
    se = per_real.std(axis=0, ddof=1) / np.sqrt(realizations) if realizations > 1 else np.zeros_like(mean)
    return mean, se
