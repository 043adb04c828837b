from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binomtest

from bethestrip import ed, recursion
from bethestrip.free import free_dos, free_forward_green, free_full_green
from bethestrip.linalg import (HERGLOTZ_SLACK, SpectralPoint, min_imag_eigenvalue,
                               resolvent, sym_part)
from bethestrip.model import GOE, BetheStripModel, DiagonalIID, PointMass
from bethestrip.recursion import (
    ac_indicator,
    batch_stats,
    eta_continuation,
    fixed_point_residual,
    measure_stationary,
    population_init,
    population_run,
    population_sweep,
    root_draws,
    sample_tree,
    sample_tree_given,
)
from bethestrip.rng import TAG_MEASURE, child_seed, keyed_rng
from conftest import random_herglotz, random_psd
from test_ed import A_OF_M, ENSEMBLES


def make_model(K=2, a=(0.0,), lam=0.0, ensemble=None):
    return BetheStripModel(K=K, a=a, lam=lam, ensemble=ensemble or GOE())


class TestForwardStep:
    """One forward step, resolvent(A, sum of K children, V, lam, z)."""

    def test_free_fixed_point(self):
        mod = make_model()
        sp = SpectralPoint(0.3, 0.7)
        g0 = free_forward_green(sp, mod)
        out = resolvent(mod.a_matrix, sum([g0] * mod.K), np.zeros((1, 1)),
                        mod.lam, sp.z)
        np.testing.assert_allclose(out, g0, atol=1e-13)

    def test_herglotz_preserved(self, rng):
        for _ in range(100):
            m = int(rng.integers(1, 4))
            K = int(rng.integers(2, 5))
            eta = float(10 ** rng.uniform(-4, 0))
            a = tuple(np.sort(rng.uniform(-1, 1, m)))
            mod = BetheStripModel(K=K, a=a, lam=0.5, ensemble=GOE())
            sp = SpectralPoint(float(rng.uniform(-2, 2)), eta)
            children = [random_herglotz(m, rng, eta=0.0) for _ in range(K)]
            V = mod.ensemble.sample(mod.m, rng)
            G = resolvent(mod.a_matrix, sum(children), V, mod.lam, sp.z)
            assert min_imag_eigenvalue(G) >= -1e-10
            assert np.linalg.norm(G, 2) <= 1.0 / eta + 1e-9


class TestSampleTree:
    def test_matches_direct_solve(self):
        sp = SpectralPoint(0.3, 0.2)
        for K, m in ((2, 1), (2, 2), (3, 2)):
            a = tuple(np.linspace(-0.4, 0.4, m))
            mod = BetheStripModel(K=K, a=a, lam=0.5, ensemble=GOE())
            for L in (0, 1, 3):
                tree = ed.build_tree(K, L, m)
                V = ed.draw_site_potentials(mod, tree, seed=11, realization=2)
                rec = sample_tree_given(sp, mod, tree, V)
                direct = ed.root_green_block(sp, mod, tree, V)
                np.testing.assert_allclose(rec, direct, atol=1e-10)

    def test_redraws_identically(self):
        mod = make_model(K=2, a=(0.0, 0.3), lam=0.7)
        sp = SpectralPoint(-0.1, 0.05)
        g1 = sample_tree(sp, mod, depth=3, seed=5, realization=1)
        g2 = sample_tree(sp, mod, depth=3, seed=5, realization=1)
        np.testing.assert_array_equal(g1, g2)
        tree = ed.build_tree(2, 3, 2)
        V = ed.draw_site_potentials(mod, tree, seed=5, realization=1)
        np.testing.assert_array_equal(g1, sample_tree_given(sp, mod, tree, V))

    @pytest.mark.parametrize("kind", list(ENSEMBLES))
    @pytest.mark.parametrize("depth", [0, 3])
    @pytest.mark.parametrize("K", [2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3])  # every branch of the resolvent kernel
    def test_stacked_realizations_equal_single_calls(self, m, K, depth, kind):
        mod = make_model(K=K, a=A_OF_M[m], lam=0.7, ensemble=ENSEMBLES[kind](m))
        sp = SpectralPoint(-0.2, 0.05)
        tree = ed.build_tree(K, depth, m)
        V = np.stack([ed.draw_site_potentials(mod, tree, seed=4, realization=t)
                      for t in range(5)])
        got = sample_tree_given(sp, mod, tree, V)
        assert got.shape == (5, m, m)
        np.testing.assert_array_equal(
            got, [sample_tree_given(sp, mod, tree, Vt) for Vt in V])

    def test_real_axis_rejected(self):
        with pytest.raises(ValueError):
            sample_tree(SpectralPoint(0.0, 0.0), make_model(), 2, seed=0)

    def test_deep_free_tree_approaches_infinite_lattice(self):
        # boundary effects decay with depth at fixed eta, at the per-level
        # contraction rate |K g^2 / 4|
        mod = make_model()
        sp = SpectralPoint(0.2, 1.0)
        exact = free_full_green(sp, mod)[0, 0]
        errs = []
        for L in (2, 4, 8):
            tree = ed.build_tree(2, L)
            g = sample_tree_given(sp, mod, tree, np.zeros((tree.n_sites, 1, 1)))
            errs.append(abs(g[0, 0] - exact))
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] < 1e-4


class TestPopulation:
    def test_init_and_validate(self):
        mod = make_model(K=2, a=(-0.5, 0.5), lam=0.1)
        pool = population_init(SpectralPoint(0.2, 0.1), mod, 128, seed=1)
        assert pool.size == 128
        G = pool.samples
        assert np.array_equal(G, G.swapaxes(-1, -2))
        assert min_imag_eigenvalue(G) >= -HERGLOTZ_SLACK
        # sweeps allocate with empty_like, so the initial layout is kept for good
        assert G.flags.c_contiguous
        assert population_sweep(pool, mod).samples.flags.c_contiguous
        with pytest.raises(ValueError):
            population_init(SpectralPoint(0.0, 0.1), mod, 1, seed=0)

    def test_sweep_deterministic_across_workers(self):
        mod = make_model(K=2, a=(-0.5, 0.5), lam=0.1)
        sp = SpectralPoint(0.2, 0.01)
        p1 = p2 = population_init(sp, mod, 301, seed=42)
        with ThreadPoolExecutor(3) as ex:
            for _ in range(3):
                p1 = population_sweep(p1, mod)
                p2 = population_sweep(p2, mod, ex.map)
        np.testing.assert_array_equal(p1.samples, p2.samples)
        assert p1.sweeps_done == 3

    def test_rerun_reproduces(self):
        mod = make_model(K=3, a=(0.0,), lam=0.6, ensemble=DiagonalIID("uniform"))
        sp = SpectralPoint(0.0, 0.05)
        a = population_run(population_init(sp, mod, 100, seed=7), mod, 5)
        b = population_run(population_init(sp, mod, 100, seed=7), mod, 5)
        np.testing.assert_array_equal(a.samples, b.samples)
        c = population_run(population_init(sp, mod, 100, seed=8), mod, 5)
        assert np.max(np.abs(a.samples - c.samples)) > 1e-6

    def test_free_pool_is_stationary(self):
        mod = make_model(K=2, a=(-0.3, 0.3), lam=0.0)
        sp = SpectralPoint(0.1, 0.2)
        pool = population_run(population_init(sp, mod, 64, seed=0), mod, 10)
        g0 = free_forward_green(sp, mod)
        assert np.max(np.abs(pool.samples - g0)) < 1e-13

    def test_point_mass_collapse_to_scalar_root(self):
        # independent oracle: the Herglotz root of (K/4)g^2 + (z-a-lam)g + 1 = 0
        mod = make_model(K=2, a=(0.0,), lam=1.0, ensemble=PointMass([[1.0]]))
        sp = SpectralPoint(0.0, 1.0)
        pool = population_run(population_init(sp, mod, 50, seed=3), mod, 60)
        roots = np.roots([mod.K / 4.0, sp.z - 1.0, 1.0])
        g_star = roots[roots.imag > 0][0]
        assert np.max(np.abs(pool.samples - g_star)) < 1e-12

    def test_herglotz_maintained_with_disorder(self):
        mod = make_model(K=2, a=(-0.5, 0.5), lam=0.3)
        sp = SpectralPoint(0.4, 0.01)
        pool = population_run(population_init(sp, mod, 500, seed=9), mod, 30)
        G = pool.samples
        assert np.array_equal(G, G.swapaxes(-1, -2))
        assert min_imag_eigenvalue(G) >= -HERGLOTZ_SLACK

    @pytest.mark.parametrize("neighbors", [2, 3, 4])
    def test_gather_matches_fancy_index_sum(self, monkeypatch, neighbors):
        mod = make_model(K=2, a=(-0.5, 0.5), lam=0.3)
        pool = population_run(population_init(SpectralPoint(0.4, 0.05), mod, 97,
                                               seed=5), mod, 3)
        # make _pool_draws hand back the neighbor sum it passes to the kernel
        monkeypatch.setattr(recursion, "resolvent", lambda A, nsum, *rest: nsum)
        got = recursion._pool_draws(pool, mod, keyed_rng(5, 1), 300, neighbors)
        idx = keyed_rng(5, 1).integers(0, pool.size, size=(300, neighbors))
        assert got.tobytes() == pool.samples[idx].sum(axis=1).tobytes()


    @pytest.mark.parametrize("lam, ensemble", [
        (0.1, GOE()), (0.0, GOE()), (-1.3, GOE()), (0.7, DiagonalIID("bernoulli")),
        (1.3, PointMass([[0.3, 0.1], [0.1, -0.2]]))])
    @pytest.mark.parametrize("E", [-0.7, 0.0, 0.4])
    def test_packed_draws_match_shifted_composition(self, lam, ensemble, E):
        # the m = 2 pool and root draws read the stream in its contract's
        # order: byte for byte one direct kernel call on the same draws,
        # signed zeros included, and LAPACK on the M composed here
        mod = make_model(K=2, a=(-0.5, 0.5), lam=lam, ensemble=ensemble)
        pool = population_run(population_init(SpectralPoint(E, 0.05), mod, 400,
                                               seed=7), mod, 3)
        z = pool.point.z
        for neighbors in (mod.K, mod.K + 1):
            rng = keyed_rng(7, 9, neighbors)
            idx = rng.integers(0, pool.size, size=(250, neighbors))
            V = mod.ensemble.sample_batch(mod.m, rng, 250)
            nsum = pool.samples[idx].sum(axis=1)
            ref = resolvent(mod.a_matrix, nsum, V, mod.lam, z)
            got = recursion._pool_draws(pool, mod, keyed_rng(7, 9, neighbors), 250,
                                        neighbors)
            assert got.tobytes() == ref.tobytes()
            M = mod.a_matrix + mod.lam * V - z * np.eye(2) - 0.25 * nsum
            np.testing.assert_allclose(got, sym_part(np.linalg.inv(M)),
                                       rtol=1e-12, atol=1e-14)
        got = root_draws(pool, mod, keyed_rng(7, 9, 3), 250)
        assert got.tobytes() == ref.tobytes()


def manual_batch_stats(blocks):
    """Per-batch means by a loop, then the grand mean and its batch-means error."""
    means = [sum(batch) / len(batch) for batch in blocks]
    grand = sum(means) / len(means)
    sq = sum(np.abs(b - grand) ** 2 for b in means)  # real and imaginary parts
    return grand, np.sqrt(sq / (len(means) * (len(means) - 1)))


class TestEstimators:
    def test_batch_stats_against_manual(self):
        rng = np.random.default_rng(5)
        for tail, cplx in (((), False), ((), True), ((2, 2), True)):  # real, complex, (m, m)
            blocks = rng.normal(size=(6, 9) + tail)
            if cplx:
                blocks = blocks + 1j * rng.normal(size=blocks.shape)
            est = batch_stats(blocks)
            mean, se = manual_batch_stats(blocks)
            np.testing.assert_allclose(est.mean, mean, rtol=1e-13)
            np.testing.assert_allclose(est.std_error, se, rtol=1e-13)
            assert np.shape(est.std_error) == tail and np.isrealobj(est.std_error)

    def test_batch_stats_complex_combines_parts(self):
        # batch means 1 + 1j and -1 - 1j: each part has variance 2
        blocks = np.array([[1 + 1j, 1 + 1j], [-1 - 1j, -1 - 1j]])
        est = batch_stats(blocks)
        assert est.mean == 0
        assert est.std_error == pytest.approx(np.sqrt((2 + 2) / 2))

    @pytest.mark.parametrize("shape", [(1, 7), (1, 7, 2, 2)], ids=["scalar", "matrix"])
    def test_batch_stats_one_batch_has_infinite_error(self, shape):
        # one batch mean has no spread to estimate: its error is inf, not NaN
        blocks = np.arange(np.prod(shape), dtype=float).reshape(shape)
        est = batch_stats(blocks)
        np.testing.assert_array_equal(est.mean, blocks[0].mean(axis=0))
        assert np.shape(est.std_error) == shape[2:]
        assert np.all(np.isposinf(est.std_error))

    @settings(max_examples=60)
    @given(batches=st.integers(1, 6), draws=st.integers(1, 6),
           tail=st.sampled_from([(), (1, 1), (2, 2), (3, 3)]), cplx=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_batch_stats_is_the_flat_array_cut_in_batches(self, batches, draws, tail,
                                                          cplx, seed):
        rng = np.random.default_rng(seed)
        flat = rng.normal(size=(batches * draws,) + tail)
        if cplx:
            flat = flat + 1j * rng.normal(size=flat.shape)
        est = batch_stats(flat.reshape((batches, draws) + tail))
        parts = np.split(flat, batches)
        mean = np.mean([part.mean(axis=0) for part in parts], axis=0)
        np.testing.assert_allclose(est.mean, mean, rtol=1e-12, atol=1e-15)
        if batches == 1:
            assert np.all(np.isposinf(est.std_error))
        else:
            np.testing.assert_allclose(est.std_error, manual_batch_stats(parts)[1],
                                       rtol=1e-12, atol=1e-15)

    def test_free_estimates_are_exact(self):
        mod = make_model(K=2, a=(-0.5, 0.5), lam=0.0)
        sp = SpectralPoint(0.3, 0.05)
        pool = population_run(population_init(sp, mod, 200, seed=1), mod, 3)
        r = keyed_rng(0, 2, 99)
        G = root_draws(pool, mod, r, 400).reshape(20, 20, 2, 2)
        eg, eg2 = batch_stats(G), batch_stats(np.conj(G) @ G)
        full = free_full_green(sp, mod)
        np.testing.assert_allclose(eg.mean, full, atol=1e-12)
        np.testing.assert_allclose(eg2.mean, np.conj(full) @ full, atol=1e-12)
        dos = measure_stationary(pool, mod, 0, sweeps=2,
                                 draws_per_sweep=400)[1].dos
        assert dos.mean == pytest.approx(free_dos(sp, mod), abs=1e-12)
        assert dos.std_error < 1e-12

    def test_one_generation_has_infinite_error(self):
        # one batch per generation: a single generation has no spread to use
        mod = make_model(lam=0.3)
        pool = population_init(SpectralPoint(0.1, 0.2), mod, 32, seed=2)
        meas = measure_stationary(pool, mod, 0, sweeps=1, draws_per_sweep=16)[1]
        (rec,) = eta_continuation(mod, 0.1, (0.2,), pool_size=32, seed=2, burn_in=2,
                                  measure_sweeps=1, draws_per_sweep=16)
        for one in (meas, rec):
            assert np.isfinite(one.dos.mean) and np.isposinf(one.dos.std_error)
            assert np.isfinite(one.trace_abs_sq.mean)
            assert np.isposinf(one.trace_abs_sq.std_error)

    def test_rejects_bad_test_matrix(self):
        mod = make_model()
        pool = population_init(SpectralPoint(0.0, 0.5), mod, 10, seed=0)
        for bad, why in ((np.array([[-1.0]]), "positive semidefinite"),
                         (np.array([[1.0, 0.5], [0.0, 1.0]]), "symmetric"),
                         (np.ones((2, 3)), "square")):
            with pytest.raises(ValueError, match=why):
                fixed_point_residual(pool, mod, keyed_rng(0, 2, 5), [bad], 20)

    @staticmethod
    def orbital_sign_test(a, seed, pools=60):
        """Exact sign test of mean G_00 - mean G_11 over independent pools.

        The samples of one pool share ancestors, so a test on one pool is
        anti-conservative.  Pools with distinct seeds are independent, and
        under a law symmetric in the two orbitals the difference D of each
        pool is symmetric about 0, so the count of Re D + Im D > 0 is
        Binomial(pools, 1/2).
        """
        mod = make_model(K=2, a=a, lam=0.5, ensemble=DiagonalIID("uniform"))
        sp = SpectralPoint(0.1, 0.1)
        positive = 0
        for r in range(pools):
            pool = population_init(sp, mod, 256, child_seed(seed, r))
            G = population_run(pool, mod, 20).samples
            d = G[:, 0, 0].mean() - G[:, 1, 1].mean()
            positive += int(d.real + d.imag > 0)
        return binomtest(positive, pools).pvalue

    def test_decoupled_orbitals_same_law(self):
        assert self.orbital_sign_test((0.0, 0.0), seed=6) > 0.01

    def test_orbital_sign_test_detects_shifted_orbital(self):
        assert self.orbital_sign_test((0.0, 0.3), seed=6) < 1e-6


class TestWeakFixedPoint:
    def test_goe_residual_within_noise(self, rng):
        # Resampling leaves each generation with a shared offset of size
        # ~ sigma/sqrt(N) that rotates from sweep to sweep (the linearized
        # sweep map has modes of modulus ~1/sqrt(K) times a unit-modulus
        # phase), so a single-generation comparison sees a bias several
        # times the within-generation standard error.  Averaging the
        # difference over many generations cancels the rotation, and the
        # generation-to-generation scatter is then the honest error bar.
        mod = make_model(K=2, a=(-0.5, 0.5), lam=0.1)
        sp = SpectralPoint(0.2, 0.05)
        pool = population_run(population_init(sp, mod, 5000, seed=12), mod, 100)
        mats = [random_psd(2, rng) for _ in range(4)]
        res = fixed_point_residual(pool, mod, keyed_rng(12, 2, 1), mats, 2000)
        assert res.within_noise
        assert res.deltas.shape == (4,)

    def test_free_residual_is_zero(self):
        mod = make_model(K=2, a=(0.0,), lam=0.0)
        sp = SpectralPoint(0.0, 0.2)
        pool = population_run(population_init(sp, mod, 100, seed=0), mod, 2)
        M = np.array([[1.0]])
        res = fixed_point_residual(pool, mod, keyed_rng(0, 2, 5), [M], 200)
        assert res.residual < 1e-13
        # at lam = 0 every sample is G0, so the pool weight is the free one
        g0 = free_forward_green(sp, mod)
        free = np.exp(0.25j * np.trace(g0 @ M))
        assert recursion._char_values(pool.samples, M).mean() == \
            pytest.approx(free, abs=1e-14)


class TestContinuation:
    def test_free_tracks_closed_form_single_eta(self):
        # With lam=0 the pool is initialized exactly at the closed-form
        # forward matrix for its eta, and sweeps preserve it to rounding,
        # so a single-step schedule reproduces the full Green matrix to
        # near machine precision.
        mod = make_model(K=2, a=(-0.5, 0.5), lam=0.0)
        for eta in (1e-1, 1e-2):
            records = eta_continuation(
                mod, E=0.2, eta_schedule=(eta,), pool_size=100, seed=0,
                burn_in=5, relax_sweeps=5, measure_sweeps=4, draws_per_sweep=50,
            )
            assert [r.eta for r in records] == [eta]
            full = free_full_green(SpectralPoint(0.2, eta), mod)
            np.testing.assert_allclose(records[0].green.mean,
                                       full, atol=1e-12)

    def test_free_tracks_closed_form_warm_start(self):
        # A warm start from the previous eta relaxes like (1 - c*eta)^t
        # because the sweep map's slowest mode has modulus 1 - O(eta): at
        # eta=1e-2 even 160 sweeps only reach ~1e-3 of the closed form.
        # The continuation is still useful (the answer is unbiased at this
        # scale), but exactness claims belong to per-eta initialization.
        mod = make_model(K=2, a=(-0.5, 0.5), lam=0.0)
        records = eta_continuation(
            mod, E=0.2, eta_schedule=(1e-1, 1e-2), pool_size=100, seed=0,
            burn_in=5, relax_sweeps=160, measure_sweeps=4, draws_per_sweep=50,
        )
        assert [r.eta for r in records] == [1e-1, 1e-2]
        full = free_full_green(SpectralPoint(0.2, 1e-1), mod)
        np.testing.assert_allclose(records[0].green.mean,
                                   full, atol=1e-10)
        full = free_full_green(SpectralPoint(0.2, 1e-2), mod)
        np.testing.assert_allclose(records[1].green.mean,
                                   full, atol=5e-3)

    def test_schedule_validation(self):
        mod = make_model()
        with pytest.raises(ValueError):
            eta_continuation(mod, 0.0, (1e-2, 1e-1), pool_size=10, seed=0)
        with pytest.raises(ValueError):
            eta_continuation(mod, 0.0, (), pool_size=10, seed=0)
        with pytest.raises(ValueError):
            eta_continuation(mod, 0.0, (1e-1, 0.0), pool_size=10, seed=0)

    def test_ac_indicator_free_in_band(self):
        mod = make_model(K=2, a=(0.0,), lam=0.0)
        records = eta_continuation(
            mod, E=0.3, eta_schedule=(1e-2, 1e-3), pool_size=64, seed=1,
            burn_in=3, relax_sweeps=3, measure_sweeps=3, draws_per_sweep=40,
        )
        ratio, bounded, err = ac_indicator(records)
        assert bounded
        assert ratio == pytest.approx(1.0, abs=0.01)

    @pytest.mark.parametrize("name, call", [
        ("realizations", lambda mod: ed.dos_histogram(
            ed.build_tree(2, 2), mod, [0.0], 0.1, realizations=0, seed=0)),
        ("draws_per_sweep", lambda mod: eta_continuation(
            mod, 0.0, (0.1,), pool_size=16, burn_in=1, relax_sweeps=1,
            measure_sweeps=2, draws_per_sweep=0)),
        ("sweeps", lambda mod: measure_stationary(
            population_init(SpectralPoint(0.0, 0.1), mod, 16, seed=0), mod,
            context=0, sweeps=0)),
        ("K", lambda mod: ed.build_tree(1, 2)),
        ("K", lambda mod: ed.tree_site_count(1, 2)),
        ("two etas", lambda mod: ac_indicator(eta_continuation(
            mod, 0.0, (0.1,), pool_size=16, burn_in=1, relax_sweeps=1,
            measure_sweeps=2, draws_per_sweep=4))),
    ], ids=["dos_histogram", "eta_continuation", "measure_stationary",
            "build_tree", "tree_site_count", "ac_indicator"])
    def test_empty_counts_raise_naming_argument(self, name, call):
        # unchecked, an empty count gives NaN means, a bare numpy error or a
        # ZeroDivisionError
        with pytest.raises(ValueError, match=name):
            call(make_model(lam=0.1))

    def test_measure_stationary_advances_pool(self):
        mod = make_model(K=2, a=(0.0,), lam=0.1)
        pool = population_init(SpectralPoint(0.0, 0.1), mod, 60, seed=4)
        pool2, meas = measure_stationary(pool, mod, context=0,
                                         sweeps=5, draws_per_sweep=40)
        assert pool2.sweeps_done == pool.sweeps_done + 5
        assert meas.trace_abs_sq.mean > 0
        assert meas.green.mean.shape == (1, 1)
        # one batch per generation, of that generation's root draws on its
        # measurement key
        gen_dos, p = [], pool
        for _ in range(5):
            p = population_sweep(p, mod)
            G = root_draws(p, mod, keyed_rng(p.seed, TAG_MEASURE, 0, p.sweeps_done), 40)
            gen_dos.append(G[:, 0, 0].imag.mean() / np.pi)
        assert meas.dos.mean == pytest.approx(np.mean(gen_dos), rel=1e-12)
        assert meas.dos.std_error == pytest.approx(np.std(gen_dos, ddof=1) / np.sqrt(5),
                                                   rel=1e-12)

    def test_root_draws_shape_and_herglotz(self):
        mod = make_model(K=3, a=(-0.2, 0.2), lam=0.2)
        pool = population_run(
            population_init(SpectralPoint(0.0, 0.2), mod, 150, seed=3), mod, 10
        )
        G = root_draws(pool, mod, keyed_rng(3, 2, 7), 64)
        assert G.shape == (64, 2, 2)
        assert min(min_imag_eigenvalue(g) for g in G) > 0


class TestBurnIn:
    """The default burn-in against a five times longer one, from the free start.

    Each config runs SEEDS keyed pools, each measured after ``recursion.BURN_IN``
    sweeps and again, on the same trajectory, after LONG_BURN_IN.  Over 100
    sweeps apart, the two measurements are independent and, without bias,
    equal in law, so the error of their difference is the seed spread of both
    arms pooled (2 SEEDS - 2 degrees of freedom).  The pool mean settles in
    1-11 sweeps at lam = 0.1-10 and in about 25 at a band edge (the uniform
    m = 1 config).  Over base seeds 2000-2119 of ``gap_in_sigmas`` 12 failed at
    3 sigma, the tails of t at 14 degrees of freedom, with no config biased on
    average; a burn-in of 0 failed at all 20 tried, at goe-lam2 and
    uniform-edge.
    """

    LONG_BURN_IN = 150  # a fixed count: a shorter default is compared with it
    SEEDS = 8
    POOL = 1_500
    SWEEPS = 5
    DRAWS = 200
    BENCH_A = (-0.5, 0.5)
    CONFIGS = {  # label -> (model, E, first eta)
        "bench-E0.4": (make_model(a=BENCH_A, lam=0.1), 0.4, 0.01),
        "bench-E1.6": (make_model(a=BENCH_A, lam=0.1), 1.6, 0.01),
        "goe-lam2": (make_model(a=BENCH_A, lam=2.0), 0.0, 0.01),
        "goe-lam10": (make_model(a=BENCH_A, lam=10.0), 0.0, 0.1),
        "uniform-edge": (make_model(lam=0.3, ensemble=DiagonalIID("uniform")),
                         1.3, 0.01),
    }

    def gap_in_sigmas(self, label, base_seed=1000):
        """(long - short) / sigma of the dos and of E Tr|G|^2 at a config."""
        model, E, eta = self.CONFIGS[label]
        arms = []  # (seed, arm, observable)
        for s in range(self.SEEDS):
            seed = child_seed(base_seed, list(self.CONFIGS).index(label), s)
            pool = population_run(
                population_init(SpectralPoint(E, eta), model, self.POOL, seed),
                model, recursion.BURN_IN)
            pool, short = measure_stationary(pool, model, 0, self.SWEEPS, self.DRAWS)
            pool = population_run(pool, model, self.LONG_BURN_IN - pool.sweeps_done)
            _, long = measure_stationary(pool, model, 0, self.SWEEPS, self.DRAWS)
            arms.append([[ms.dos.mean, ms.trace_abs_sq.mean] for ms in (short, long)])
        arms = np.array(arms)
        gap = arms[:, 1].mean(axis=0) - arms[:, 0].mean(axis=0)
        return gap / np.sqrt(arms.var(axis=0, ddof=1).sum(axis=0) / self.SEEDS)

    @pytest.mark.parametrize("label", CONFIGS)
    def test_default_burn_in_matches_a_longer_one(self, label):
        assert np.all(np.abs(self.gap_in_sigmas(label)) <= 3.0)
