import numpy as np
import pytest

from bethestrip import ed
from bethestrip.ed import (
    MAX_DOF,
    assemble_operator,
    build_tree,
    dos_histogram,
    draw_site_potentials,
    root_green_block,
    tree_site_count,
)
from bethestrip.errors import SizeOverflowError
from bethestrip.linalg import SpectralPoint
from bethestrip.model import GOE, BetheStripModel, DiagonalIID, PointMass
from bethestrip.rng import TAG_REALIZATION, keyed_rng


def make_model(K=2, a=(0.0,), lam=0.0, ensemble=None):
    return BetheStripModel(K=K, a=a, lam=lam, ensemble=ensemble or GOE())


A_OF_M = {1: (0.2,), 2: (-0.3, 0.7), 3: (-0.4, 0.1, 0.6)}
# every ensemble, built for a strip of width m
ENSEMBLES = {
    "goe": lambda m: GOE(),
    "diag:uniform": lambda m: DiagonalIID("uniform"),
    "diag:gauss": lambda m: DiagonalIID("gauss"),
    "diag:bernoulli": lambda m: DiagonalIID("bernoulli"),
    "point": lambda m: PointMass(np.eye(m) + 0.25),
}


def dense_operator(tree, model, potentials):
    """Reference strip operator, filled one site block and one edge at a time."""
    m = model.m
    H = np.zeros((tree.n_sites * m, tree.n_sites * m))
    for site in range(tree.n_sites):
        H[site * m:(site + 1) * m, site * m:(site + 1) * m] = (
            model.a_matrix + model.lam * potentials[site])
    for child in range(1, tree.n_sites):
        parent = tree.parents[child]
        for o in range(m):
            H[parent * m + o, child * m + o] = 0.5
            H[child * m + o, parent * m + o] = 0.5
    return H


class TestTree:
    def test_site_counts(self):
        assert tree_site_count(2, 0) == 1
        assert tree_site_count(2, 1) == 4
        assert tree_site_count(2, 2) == 10
        assert tree_site_count(2, 3) == 22
        assert tree_site_count(3, 2) == 17

    def test_structure(self):
        # the layout recursion.sample_tree_given eliminates by depth
        t = build_tree(2, 3)
        assert t.n_sites == 22
        counts = np.bincount(t.parents[1:], minlength=t.n_sites)
        assert counts[0] == 3  # root has K+1 branches
        expect = np.where(t.depth_of[1:] == t.depth, 0, 2)
        np.testing.assert_array_equal(counts[1:], expect)
        # each site's children are contiguous, in parent order
        assert np.all(np.diff(t.parents[1:]) >= 0)
        # BFS: depths are sorted
        assert np.all(np.diff(t.depth_of) >= 0)
        # parent depth is child depth minus one
        assert np.all(t.depth_of[1:] == t.depth_of[t.parents[1:]] + 1)

    def test_depth_zero(self):
        t = build_tree(5, 0)
        assert t.n_sites == 1
        assert t.parents.tolist() == [-1]
        assert np.bincount(t.parents[1:], minlength=t.n_sites).tolist() == [0]

    @pytest.mark.parametrize("K, depth, parents, depth_of", [
        (7, 0, [-1], [0]),
        (4, 1, [-1, 0, 0, 0, 0, 0], [0, 1, 1, 1, 1, 1]),
        (2, 2, [-1, 0, 0, 0, 1, 1, 2, 2, 3, 3], [0, 1, 1, 1] + [2] * 6),
        (3, 2, [-1, 0, 0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4],
         [0] + [1] * 4 + [2] * 12),
        (2, 3, [-1, 0, 0, 0, 1, 1, 2, 2, 3, 3,
                4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9],
         [0, 1, 1, 1] + [2] * 6 + [3] * 12),
    ])
    def test_arrays_hard_coded(self, K, depth, parents, depth_of):
        # the exact arrays, values and int64 dtype, that the breadth-first
        # layout fixes and every tree-elimination path indexes into
        t = build_tree(K, depth)
        assert t.parents.dtype == t.depth_of.dtype == np.int64
        assert t.parents.tolist() == parents
        assert t.depth_of.tolist() == depth_of

    @pytest.mark.parametrize("K", [2, 3, 4, 7])
    def test_arrays_match_frontier_loop(self, K):
        # reference: the breadth-first frontier walk, one site at a time
        for depth in range(6 if K == 7 else 7):
            n = tree_site_count(K, depth)
            parents = np.full(n, -1, dtype=np.int64)
            depth_of = np.zeros(n, dtype=np.int64)
            nxt, frontier = 1, [0]
            for d in range(1, depth + 1):
                new_frontier = []
                for p in frontier:
                    for _ in range(K + 1 if p == 0 else K):
                        parents[nxt], depth_of[nxt] = p, d
                        new_frontier.append(nxt)
                        nxt += 1
                frontier = new_frontier
            t = build_tree(K, depth)
            assert t.parents.dtype == t.depth_of.dtype == np.int64
            assert t.parents.tobytes() == parents.tobytes()
            assert t.depth_of.tobytes() == depth_of.tobytes()

    def test_size_cap(self):
        with pytest.raises(SizeOverflowError):
            build_tree(2, 18, m=3)
        assert tree_site_count(2, 18) * 3 > MAX_DOF


class TestPotentials:
    def test_deterministic_and_distinct(self):
        mod = make_model(a=(0.0, 0.5), lam=1.0)
        t = build_tree(2, 2)
        V1 = draw_site_potentials(mod, t, seed=9, realization=0)
        V2 = draw_site_potentials(mod, t, seed=9, realization=0)
        np.testing.assert_array_equal(V1, V2)
        V3 = draw_site_potentials(mod, t, seed=9, realization=1)
        assert np.max(np.abs(V1 - V3)) > 1e-3

    def test_prefix_property_on_deeper_tree(self):
        # BFS indexing makes a shallower tree's draws a prefix of a deeper one's
        for m, kind in ((1, "goe"), (3, "goe"), (3, "diag:bernoulli")):
            mod = make_model(a=A_OF_M[m], lam=0.7, ensemble=ENSEMBLES[kind](m))
            shallow = build_tree(2, 2, m)
            deep = build_tree(2, 3, m)
            Vs = draw_site_potentials(mod, shallow, seed=4, realization=7)
            Vd = draw_site_potentials(mod, deep, seed=4, realization=7)
            np.testing.assert_array_equal(Vs, Vd[: shallow.n_sites], err_msg=kind)

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("kind", list(ENSEMBLES))
    def test_one_stream_per_realization(self, kind, m):
        # row s of the draw is site s of one batch on the (seed, realization) stream
        mod = make_model(a=A_OF_M[m], lam=0.7, ensemble=ENSEMBLES[kind](m))
        t = build_tree(2, 3, m)
        got = draw_site_potentials(mod, t, seed=8, realization=5)
        want = mod.ensemble.sample_batch(m, keyed_rng(8, TAG_REALIZATION, 5),
                                         t.n_sites)
        assert got.shape == want.shape == (t.n_sites, m, m)
        assert got.tobytes() == want.tobytes()

    def test_one_keyed_rng_call_whatever_the_depth(self, monkeypatch):
        keys = []

        def counting_rng(seed, *key):
            keys.append((seed, *key))
            return keyed_rng(seed, *key)

        monkeypatch.setattr(ed, "keyed_rng", counting_rng)
        mod = make_model(a=A_OF_M[3], lam=0.7)
        for depth in (0, 2, 5):
            keys.clear()
            draw_site_potentials(mod, build_tree(2, depth, 3), seed=8,
                                 realization=5)
            assert keys == [(8, TAG_REALIZATION, 5)], depth


class TestAssembly:
    def test_blocks(self):
        mod = make_model(K=2, a=(-0.3, 0.7), lam=2.0,
                         ensemble=DiagonalIID("bernoulli"))
        t = build_tree(2, 1)
        V = draw_site_potentials(mod, t, seed=1)
        H = assemble_operator(t, mod, V).toarray()
        np.testing.assert_allclose(H, H.T, atol=0)
        m = mod.m
        for site in range(t.n_sites):
            blk = H[site * m:(site + 1) * m, site * m:(site + 1) * m]
            np.testing.assert_allclose(blk, mod.a_matrix + 2.0 * V[site])
        p, c = t.edges()[0]
        np.testing.assert_allclose(
            H[p * m:(p + 1) * m, c * m:(c + 1) * m], 0.5 * np.eye(m)
        )

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("K", [2, 3])
    @pytest.mark.parametrize("depth", [0, 1, 3])
    def test_whole_operator_matches_loops(self, m, K, depth):
        mod = make_model(K=K, a=A_OF_M[m], lam=0.9)
        t = build_tree(K, depth, m)
        V = draw_site_potentials(mod, t, seed=5)
        H = assemble_operator(t, mod, V)
        np.testing.assert_array_equal(H.toarray(), dense_operator(t, mod, V))
        # GOE blocks are full, so every block entry and both hopping
        # directions of every edge are stored
        n = t.n_sites
        assert H.nnz == n * m * m + 2 * (n - 1) * m

    def test_free_star_eigenvalues(self):
        # lam=0, L=1, K=2, m=1: the operator is half the star-graph adjacency,
        # eigenvalues +- sqrt(3)/2 and a double zero
        t = build_tree(2, 1)
        H = assemble_operator(t, make_model(), np.zeros((4, 1, 1))).toarray()
        evals = np.sort(np.linalg.eigvalsh(H))
        np.testing.assert_allclose(
            evals, [-np.sqrt(3) / 2, 0.0, 0.0, np.sqrt(3) / 2], atol=1e-12
        )


def dense_root_block(sp, tree, model, potentials):
    """The root m x m block of a dense inv(H - z)."""
    H = dense_operator(tree, model, potentials)
    return np.linalg.inv(H - sp.z * np.eye(len(H)))[:model.m, :model.m]


class TestGreenSolves:
    def test_root_block_k3_matches_dense_inverse(self):
        mod = make_model(K=3, a=(-0.2, 0.4), lam=0.5)
        t = build_tree(3, 3)
        V = draw_site_potentials(mod, t, seed=2)
        sp = SpectralPoint(0.3, 0.05)
        np.testing.assert_allclose(root_green_block(sp, mod, t, V),
                                   dense_root_block(sp, t, mod, V), atol=1e-10)

    def test_root_block_matches_columns_and_symmetry(self):
        mod = make_model(K=2, a=(-0.5, 0.5), lam=0.8)
        t = build_tree(2, 2)
        V = draw_site_potentials(mod, t, seed=3)
        sp = SpectralPoint(-0.2, 0.1)
        blk = root_green_block(sp, mod, t, V)
        np.testing.assert_allclose(blk, dense_root_block(sp, t, mod, V), atol=1e-12)
        assert np.max(np.abs(blk - blk.T)) < 1e-10
        # Herglotz: positive imaginary part at eta > 0
        assert np.linalg.eigvalsh(blk.imag)[0] > 0

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("lam, ensemble", [(0.6, DiagonalIID("uniform")),
                                               (0.0, GOE())])
    def test_root_block_matches_dense_inverse(self, m, lam, ensemble):
        # at lam = 0 the off-diagonal block entries are stored zeros
        mod = make_model(K=2, a=A_OF_M[m], lam=lam, ensemble=ensemble)
        t = build_tree(2, 3, m)
        V = draw_site_potentials(mod, t, seed=6)
        sp = SpectralPoint(0.3, 0.05)
        want = dense_root_block(sp, t, mod, V)
        got = root_green_block(sp, mod, t, V)
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-12 * np.max(np.abs(want)))

    @pytest.mark.parametrize("depth", [0, 3])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("lam, kind", [(0.6, "goe"), (0.0, "goe"),
                                           (0.6, "diag:uniform"),
                                           (3.0, "diag:bernoulli"),
                                           (0.6, "point")])
    def test_stacked_realizations_match_dense_inverse(self, m, depth, lam, kind):
        # one CSC pattern for all realizations; at lam = 0 and for the diagonal
        # ensembles the zero off-diagonal block entries are dropped per operator
        mod = make_model(K=2, a=A_OF_M[m], lam=lam, ensemble=ENSEMBLES[kind](m))
        t = build_tree(2, depth, m)
        V = np.stack([draw_site_potentials(mod, t, seed=6, realization=r)
                      for r in range(4)])
        sp = SpectralPoint(0.3, 0.05)
        got = root_green_block(sp, mod, t, V)
        assert got.shape == (4, m, m)
        for blk, Vr in zip(got, V):
            want = dense_root_block(sp, t, mod, Vr)
            np.testing.assert_allclose(blk, want, rtol=0,
                                       atol=1e-12 * np.max(np.abs(want)))


class TestDosHistogram:
    def test_star_graph_oracle(self):
        # K=2, L=1, lam=0: eigenvalues are known in closed form, so the
        # smeared density is a sum of four explicit Cauchy kernels
        t = build_tree(2, 1)
        mod = make_model()
        grid = np.linspace(-1.5, 1.5, 7)
        eta = 0.3
        mean, se = dos_histogram(t, mod, grid, eta, realizations=3, seed=0)
        evals = np.array([-np.sqrt(3) / 2, 0.0, 0.0, np.sqrt(3) / 2])
        expected = (eta / np.pi / ((grid[:, None] - evals) ** 2 + eta**2)).sum(1) / 4
        np.testing.assert_allclose(mean, expected, atol=1e-12)
        np.testing.assert_allclose(se, 0.0, atol=1e-12)  # lam = 0: no spread

    def test_disordered_se_positive(self):
        t = build_tree(2, 3)
        mod = make_model(lam=0.5)
        mean, se = dos_histogram(t, mod, [0.0, 1.0], 0.2, realizations=5, seed=1)
        assert np.all(mean > 0)
        assert np.all(se > 0)

    def test_eta_required(self):
        with pytest.raises(ValueError):
            dos_histogram(build_tree(2, 1), make_model(), [0.0], 0.0, 2, 0)

    def test_dense_cap(self):
        with pytest.raises(SizeOverflowError):
            dos_histogram(build_tree(2, 11), make_model(), [0.0], 0.1, 1, 0)
