"""Tests for the deterministic forward fixed-point solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bethestrip.fixedpoint as fp
from bethestrip.errors import UnsupportedEnsembleError
from bethestrip.fixedpoint import (
    FixedPointProblem,
    continuation_to_boundary,
    solve_forward,
)
from bethestrip.free import a_e_matrix, forward_roots, free_forward_green
from bethestrip.linalg import (HERGLOTZ_SLACK, SpectralPoint, min_imag_eigenvalue,
                               sym_part)
from bethestrip.model import GOE, BetheStripModel, DiagonalIID, PointMass

from conftest import random_herglotz, random_symmetric


def make_model(K=2, a=(0.0,), lam=0.0, ensemble=None):
    if ensemble is None:
        ensemble = DiagonalIID("uniform")
    return BetheStripModel(K=K, a=a, lam=lam, ensemble=ensemble)


def herglotz_quadratic_root(K, z, b):
    """Im>0 root of (K/4) g^2 + (z - b) g + 1 = 0 via numpy.roots."""
    roots = np.roots([0.25 * K, z - b, 1.0])
    upper = roots[roots.imag > 0]
    assert upper.size == 1
    return complex(upper[0])


def onsite(model):
    """B = A + lam*V0, built from the model."""
    B = np.array(model.a_matrix, dtype=float)
    if model.lam != 0.0:
        B = B + model.lam * model.ensemble.matrix
    return B


def raw_residual(model, z, G):
    """G - [B - z - (K/4) G]^{-1} through a plain inverse, for any square G."""
    return G - np.linalg.inv(onsite(model) - z * np.eye(len(G)) - 0.25 * model.K * G)


def m3_point_mass():
    V0 = ((0.5, -0.3, 0.1), (-0.3, -0.2, 0.25), (0.1, 0.25, 0.4))
    return make_model(K=3, a=(-0.6, 0.0, 0.5), lam=1.3, ensemble=PointMass(V0))


def bench_point_mass():
    """The m = 2 point mass of the benchmark's continuation workload."""
    V0 = ((0.3, 0.1), (0.1, -0.2))
    return make_model(K=2, a=(-0.5, 0.5), lam=0.7, ensemble=PointMass(V0))


def off_branch_point_mass():
    """A K = 3, m = 2 point mass whose fixed point at OFF_BRANCH_E + 0.01i lies
    far from the free closed form: a locally convergent iteration started there
    lands on a root off the dissipative branch."""
    V0 = ((1.3086357086483342, -0.9180633699746104),
          (-0.9180633699746104, 0.8365690029317673))
    return make_model(K=3, a=(-0.7943980882289585, 0.04003403116346105),
                      lam=1.4223578652192967, ensemble=PointMass(V0))


OFF_BRANCH_E = 2.9582599241880905


def diagonalized_solution(model, z):
    """Independent closed form for the point-mass fixed point.

    The equation only involves B = A + lam*V0, so in B's orthogonal
    eigenbasis it decouples into scalar quadratics, one per eigenvalue.
    """
    evals, U = np.linalg.eigh(onsite(model))
    g = np.array([herglotz_quadratic_root(model.K, z, b) for b in evals])
    return U @ np.diag(g) @ U.T


class TestProblem:
    def test_requires_deterministic_potential(self):
        with pytest.raises(UnsupportedEnsembleError):
            FixedPointProblem(make_model(lam=0.3, ensemble=GOE()),
                              SpectralPoint(0.0, 1.0))

    def test_lam_zero_any_ensemble_ok(self):
        prob = FixedPointProblem(make_model(lam=0.0, ensemble=GOE()),
                                 SpectralPoint(0.0, 1.0))
        # forward_map(0) = (A + lam*V0 - z)^-1 = (0 - i)^-1
        assert prob.forward_map(np.zeros((1, 1))) == pytest.approx(
            np.array([[1j]]))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_forward_map_any_width_and_stack(self, m, rng):
        # one kernel call for an (m, m) matrix and (n, m, m) stacks alike,
        # byte for byte the per-member calls, and LAPACK on the M built here
        V0 = random_symmetric(m, rng)
        mod = make_model(K=3, a=tuple(np.linspace(-0.5, 0.5, m)), lam=0.7,
                         ensemble=PointMass(V0))
        sp = SpectralPoint(0.3, 0.2)
        prob = FixedPointProblem(mod, sp)
        G = np.array([random_herglotz(m, rng) for _ in range(3)])
        for x in (G[0], G[:1], G):
            got = prob.forward_map(x)
            assert got.shape == x.shape
            want = [prob.forward_map(g).tobytes() for g in x.reshape(-1, m, m)]
            assert [g.tobytes() for g in got.reshape(-1, m, m)] == want
        M = onsite(mod) - sp.z * np.eye(m) - 0.25 * mod.K * G
        np.testing.assert_allclose(prob.forward_map(G), sym_part(np.linalg.inv(M)),
                                   rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("solve", [
        lambda mod: solve_forward(mod, SpectralPoint(0.0, 1.0)),
        lambda mod: continuation_to_boundary(mod, 0.0)], ids=["solve", "continuation"])
    def test_solvers_refuse_random_potential(self, solve):
        with pytest.raises(UnsupportedEnsembleError):
            solve(make_model(lam=0.3, ensemble=GOE()))

    @pytest.mark.parametrize("ensemble", [GOE(), DiagonalIID("gauss"),
                                          PointMass(((1.0,),))],
                             ids=["goe", "diag", "point-mass"])
    def test_solvers_accept_any_ensemble_at_zero_coupling(self, ensemble):
        # at lam = 0 the potential drops out: every ensemble gives the free root
        mod = make_model(lam=0.0, ensemble=ensemble)
        sp = SpectralPoint(0.3, 0.5)
        np.testing.assert_allclose(solve_forward(mod, sp).solution,
                                   free_forward_green(sp, mod), atol=1e-14)
        last = continuation_to_boundary(mod, 0.3)[-1]
        np.testing.assert_allclose(last.solution,
                                   free_forward_green(SpectralPoint(0.3), mod),
                                   atol=1e-14)

    def test_onsite_includes_shifted_point_mass(self):
        V0 = ((0.2, 0.1), (0.1, -0.3))
        mod = make_model(a=(-0.5, 0.5), lam=2.0, ensemble=PointMass(V0))
        prob = FixedPointProblem(mod, SpectralPoint(0.0, 1.0))
        onsite = np.array([[-0.5 + 0.4, 0.2], [0.2, 0.5 - 0.6]])
        np.testing.assert_allclose(prob.forward_map(np.zeros((2, 2))),
                                   np.linalg.inv(onsite - 1j * np.eye(2)),
                                   rtol=1e-14)

    def test_default_guess_is_free_solution(self, monkeypatch):
        # on a free model solve_forward's one map evaluation is at the free
        # closed form at the point, eta = 0 included; FixedPointProblem's
        # forward_map and the solver share the module's map
        first = []
        real = fp._forward_map

        def recording(model, z, G):
            first.append(G[0].copy())
            return real(model, z, G)

        monkeypatch.setattr(fp, "_forward_map", recording)
        mod = make_model(a=(-0.5, 0.5))
        sp = SpectralPoint(0.3, 0.7)
        solve_forward(mod, sp)
        np.testing.assert_allclose(first[0], free_forward_green(sp, mod))
        first.clear()
        solve_forward(mod, SpectralPoint(0.3, 0.0))
        np.testing.assert_allclose(first[0], -4.0 * a_e_matrix(0.3, mod))


class TestClosedFormColdStarts:
    """Fixed points with closed forms of their own."""

    def test_scalar_free_from_zero(self):
        rep = solve_forward(make_model(), SpectralPoint(0.0, 1.0))
        assert rep.residual <= 1e-12
        assert rep.solution[0, 0] == pytest.approx(1j * (np.sqrt(3) - 1),
                                                   abs=1e-11)

    def test_free_matrix_case(self):
        mod = make_model(K=3, a=(-0.7, 0.1, 0.4))
        sp = SpectralPoint(0.2, 0.8)
        rep = solve_forward(mod, sp)
        np.testing.assert_allclose(rep.solution, free_forward_green(sp, mod),
                                   atol=1e-10)

    def test_point_mass_quadratic_oracle(self):
        mod = make_model(lam=1.0, ensemble=PointMass(((1.0,),)))
        rep = solve_forward(mod, SpectralPoint(2.0, 0.1))
        want = herglotz_quadratic_root(2, 2 + 0.1j, 1.0)
        assert rep.solution[0, 0] == pytest.approx(want, abs=1e-10)


class TestSolveForward:
    def test_diagonalization_oracle_m3(self):
        mod = m3_point_mass()
        sp = SpectralPoint(0.4, 0.2)
        rep = solve_forward(mod, sp)
        np.testing.assert_allclose(rep.solution,
                                   diagonalized_solution(mod, sp.z),
                                   atol=1e-10)
        assert rep.herglotz

    def test_off_branch_point_mass_is_dissipative(self):
        mod = off_branch_point_mass()
        sp = SpectralPoint(OFF_BRANCH_E, 0.01)
        rep = solve_forward(mod, sp)
        np.testing.assert_allclose(rep.solution, diagonalized_solution(mod, sp.z),
                                   atol=1e-10, rtol=0)
        assert rep.min_imag_eig > 0
        assert rep.residual <= 1e-12

    @settings(max_examples=200)
    @given(K=st.integers(2, 4), m=st.integers(1, 4), lam=st.floats(0.0, 1.0),
           E=st.floats(-4.0, 4.0), eta=st.floats(1e-8, 1.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_quadratic_roots_property(self, K, m, lam, E, eta, seed):
        # the eigenbasis closed form against numpy.roots per eigenvalue of B,
        # with the residual through a plain inverse; eta starts at 1e-8, as at
        # a few ulps numpy.roots cannot tell the two roots apart outside a band
        rng = np.random.default_rng(seed)
        mod = make_model(K=K, a=tuple(np.sort(rng.uniform(-1.0, 1.0, m))),
                         lam=lam, ensemble=PointMass(random_symmetric(m, rng)))
        z = complex(E, eta)
        G = solve_forward(mod, SpectralPoint(E, eta)).solution
        np.testing.assert_allclose(G, diagonalized_solution(mod, z),
                                   atol=1e-10, rtol=0)
        assert np.abs(raw_residual(mod, z, G)).max() <= 1e-12
        assert min_imag_eigenvalue(G) >= -1e-12

    def test_far_outside_boundary_residual(self):
        # the real-axis root outside the band is evaluated without
        # cancellation, so the map reproduces it to the last bit
        rep = solve_forward(make_model(), SpectralPoint(1e6, 0.0))
        assert rep.residual <= 1e-18

    def test_report_certificate(self):
        mod = make_model()
        rep = solve_forward(mod, SpectralPoint(0.3, 0.8))
        prob = FixedPointProblem(mod, SpectralPoint(0.3, 0.8))
        G = rep.solution
        assert rep.residual == float(np.abs(G - prob.forward_map(G)).max())
        assert rep.residual <= 1e-12
        assert rep.z == 0.3 + 0.8j


class TestContinuation:
    def test_scalar_boundary_closed_form(self):
        reports = continuation_to_boundary(make_model(), 0.0)
        assert reports[-1].z == 0.0 + 0.0j
        assert reports[-1].solution[0, 0] == pytest.approx(1j * np.sqrt(2),
                                                           abs=1e-10)
        assert reports[-1].herglotz
        etas = [r.z.imag for r in reports]
        assert etas[0] == 1.0
        assert etas[-2] >= 1e-8 and etas[-1] == 0.0
        assert all(b < a for a, b in zip(etas[:-1], etas[1:]))
        for rep in reports:
            assert rep.residual <= 1e-12
            low = min_imag_eigenvalue(rep.solution)
            assert low >= -1e-10
            if rep.z.imag > 0:
                assert low > 0

    def test_outside_band_flags_real_solution(self):
        E = np.sqrt(2.0) + 0.5
        reports = continuation_to_boundary(make_model(), E)
        last = reports[-1]
        assert last.residual <= 1e-12
        assert not last.herglotz
        assert abs(last.solution[0, 0].imag) < 1e-10
        want = free_forward_green(SpectralPoint(E), make_model())[0, 0]
        assert last.solution[0, 0] == pytest.approx(want, abs=1e-10)

    def test_decoupled_m2_boundary(self):
        mod = make_model(a=(-0.5, 0.5))
        last = continuation_to_boundary(mod, 0.0)[-1]
        np.testing.assert_allclose(last.solution,
                                   free_forward_green(SpectralPoint(0.0), mod),
                                   atol=1e-10)

    @pytest.mark.parametrize("model", [bench_point_mass, m3_point_mass],
                             ids=["m2", "m3"])
    def test_matches_diagonalized_solution(self, model):
        # every eta > 0 level on 15 energies across and beyond the bands
        mod = model()
        for E in np.linspace(-2.8, 2.8, 15):
            for rep in continuation_to_boundary(mod, E):
                if rep.z.imag > 0:
                    np.testing.assert_allclose(
                        rep.solution, diagonalized_solution(mod, rep.z),
                        atol=1e-10, rtol=0)

    def test_free_boundary_across_band_edges(self):
        # the eta = 0 limit is continuous across the edges +-sqrt 2, where G(E)
        # has a square-root singularity
        mod = make_model()
        for E in np.linspace(-2.5, 2.5, 101):
            last = continuation_to_boundary(mod, float(E))[-1]
            assert last.z == complex(E, 0.0)
            np.testing.assert_allclose(
                last.solution, free_forward_green(SpectralPoint(E), mod),
                atol=1e-9, rtol=0)
            assert last.herglotz == (abs(E) < np.sqrt(2.0))

    @pytest.mark.parametrize("K, a, edge, inside", [
        (2, (0.0,), np.sqrt(2.0), 1.4142), (4, (-0.5, 0.5), 1.5, 1.49)],
        ids=["K2m1", "K4m2"])
    def test_band_edge_boundary_not_dissipative(self, K, a, edge, inside):
        # at a window edge the fixed point is a double root and its eta = 0
        # limit is real; just inside, min eig Im G is 6e-3 and 0.1
        mod = make_model(K=K, a=a)
        for sign in (1.0, -1.0):
            assert not continuation_to_boundary(mod, sign * edge)[-1].herglotz
            assert continuation_to_boundary(mod, sign * inside)[-1].herglotz

    @settings(max_examples=100)
    @given(K=st.integers(2, 4), m=st.integers(1, 4),
           lam=st.sampled_from([0.0, 0.7]) | st.floats(0.0, 2.0),
           E=st.floats(-6.0, 6.0) | st.sampled_from([0.0, -0.0]),
           edge=st.none() | st.tuples(st.sampled_from([1.0, -1.0]), st.integers(0, 3)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_batched_levels_equal_per_level_solves(self, K, m, lam, E, edge, seed):
        # byte for byte the per-level loop the batched evaluation replaced:
        # one root, one map call and one margin per eta, at z = complex(E, eta)
        rng = np.random.default_rng(seed)
        a = tuple(np.sort(rng.uniform(-1.0, 1.0, m)))
        mod = make_model(K=K, a=a, lam=lam,
                         ensemble=PointMass(random_symmetric(m, rng)))
        if edge is not None:  # a band edge +-sqrt K + a_k of the free strip
            E = edge[0] * np.sqrt(K) + a[edge[1] % m]
        *_, b, Q = fp._onsite(mod)
        reports = continuation_to_boundary(mod, E)
        assert len(reports) == len(fp.ETA_SCHEDULE)
        for eta, rep in zip(fp.ETA_SCHEDULE, reports):
            z = complex(E, eta)
            G = (Q * forward_roots(z, b, K)) @ Q.T
            mapped = FixedPointProblem(mod, SpectralPoint(E, eta)).forward_map(G)
            low = min_imag_eigenvalue(G)
            assert rep.solution.tobytes() == G.tobytes()
            assert (np.float64(rep.residual).tobytes()
                    == np.float64(np.abs(G - mapped).max()).tobytes())
            assert np.float64(rep.min_imag_eig).tobytes() == np.float64(low).tobytes()
            assert np.complex128(rep.z).tobytes() == np.complex128(z).tobytes()
            assert rep.herglotz == (low > HERGLOTZ_SLACK)

    @settings(max_examples=100)
    @given(K=st.integers(2, 4), m=st.integers(3, 6),
           lam=st.sampled_from([0.0]) | st.floats(0.0, 2.0),
           E=st.floats(-4.0, 4.0),
           edge=st.none() | st.tuples(st.sampled_from([1.0, -1.0]), st.integers(0, 5)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_residuals_match_plain_inverse(self, K, m, lam, E, edge, seed):
        # every level's residual, the eta = 0 boundary and band edges included,
        # matches one through LAPACK's pivoted inverse
        rng = np.random.default_rng(seed)
        a = tuple(np.sort(rng.uniform(-1.0, 1.0, m)))
        mod = make_model(K=K, a=a, lam=lam,
                         ensemble=PointMass(random_symmetric(m, rng)))
        if edge is not None:  # a band edge +-sqrt K + a_k of the free strip
            E = edge[0] * np.sqrt(K) + a[edge[1] % m]
        reports = continuation_to_boundary(mod, E)
        assert reports[-1].z == complex(E, 0.0)
        for rep in reports:
            ref = np.abs(raw_residual(mod, rep.z, rep.solution)).max()
            assert abs(rep.residual - ref) <= 1e-12 * np.abs(rep.solution).max()

    @pytest.mark.parametrize("a", [(0.0, 0.0, 0.0), (0.0, 0.0, 10.0)],
                             ids=["in-band", "gap"])
    def test_ladder_vanishing_pivot_residuals(self, a):
        # a symmetric ladder, B = lam [[0, 1], [1, 0]] (+) a_3: at E = 0 the
        # eigenvalues +-lam enter row 0 of Q with weight 1/2 and g(-lam) =
        # -g(lam), so G[0, 0] ~ 0 and the first pivot -z - (K/4) G[0, 0] is
        # about -eta, 0 at the boundary; with a_3 = 10, E = 0 lies in a gap.
        # Every level's residual matches LAPACK's (elimination without the
        # fallback was 1e-8 off at eta ~ 1e-8), and the batched levels equal
        # per-level map calls byte for byte
        mod = make_model(K=2, a=a, lam=2.0,
                         ensemble=PointMass([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0],
                                             [0.0, 0.0, 0.0]]))
        reports = continuation_to_boundary(mod, 0.0)
        assert abs(reports[-1].solution[0, 0]) < 1e-15
        for eta, rep in zip(fp.ETA_SCHEDULE, reports):
            G = rep.solution
            ref = np.abs(raw_residual(mod, rep.z, G)).max()
            assert abs(rep.residual - ref) <= 1e-13 * np.abs(G).max()
            mapped = FixedPointProblem(mod, SpectralPoint(0.0, eta)).forward_map(G)
            assert (np.float64(rep.residual).tobytes()
                    == np.float64(np.abs(G - mapped).max()).tobytes())

    def test_eta_schedule_pinned(self):
        # the benchmark's continuation check zips its reports with this list
        want = tuple(0.5 ** k for k in range(27)) + (0.0,)
        assert fp.ETA_SCHEDULE == want
        reports = continuation_to_boundary(bench_point_mass(), 0.3)
        assert len(reports) == 28
        assert tuple(r.z.imag for r in reports) == want
        assert all(r.z.real == 0.3 for r in reports)

    def test_every_level_dissipative_on_seeded_energies(self):
        # the dissipative root of every eta > 0 level, near the edges included
        mod = bench_point_mass()
        for E in np.random.default_rng(2011).uniform(-2.5, 2.5, 200):
            reports = continuation_to_boundary(mod, float(E))
            assert len(reports) == len(fp.ETA_SCHEDULE)
            for rep in reports[:-1]:
                assert min_imag_eigenvalue(rep.solution) >= -HERGLOTZ_SLACK

    def test_point_mass_boundary_inside_shifted_band(self):
        # V0 = 1 with lam = 0.5 shifts the band by 0.5; E = 0.5 sits at
        # its center, so the boundary solution is i*sqrt(2)/1 again in
        # the shifted variable.
        mod = make_model(lam=0.5, ensemble=PointMass(((1.0,),)))
        last = continuation_to_boundary(mod, 0.5)[-1]
        assert last.solution[0, 0] == pytest.approx(1j * np.sqrt(2),
                                                    abs=1e-10)
        assert last.herglotz
