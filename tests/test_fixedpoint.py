"""Tests for the deterministic forward fixed-point solver."""

import numpy as np
import pytest

import bethestrip.fixedpoint as fp
from bethestrip.errors import (
    ContinuationBreakdownError,
    NoConvergenceError,
    SingularJacobianError,
    UnsupportedEnsembleError,
)
from bethestrip.fixedpoint import (
    FixedPointProblem,
    continuation_to_boundary,
    solve_forward,
)
from bethestrip.free import a_e_matrix, free_forward_green
from bethestrip.linalg import (HERGLOTZ_SLACK, SpectralPoint, min_imag_eigenvalue,
                               resolvent)
from bethestrip.linearization import upper_slots
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


def random_complex_symmetric(m, rng):
    return random_symmetric(m, rng) + 1j * (random_symmetric(m, rng)
                                            + 2.0 * np.eye(m))


def m3_point_mass():
    V0 = ((0.5, -0.3, 0.1), (-0.3, -0.2, 0.25), (0.1, 0.25, 0.4))
    return make_model(K=3, a=(-0.6, 0.0, 0.5), lam=1.3, ensemble=PointMass(V0))


def bench_point_mass():
    """The m = 2 point mass of the benchmark's continuation workload."""
    V0 = ((0.3, 0.1), (0.1, -0.2))
    return make_model(K=2, a=(-0.5, 0.5), lam=0.7, ensemble=PointMass(V0))


def off_branch_point_mass():
    """A K = 3, m = 2 point mass whose cold solve at E + 0.01i leaves the branch."""
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
        # byte for byte the per-member calls on the shifted block
        V0 = random_symmetric(m, rng)
        mod = make_model(K=3, a=tuple(np.linspace(-0.5, 0.5, m)), lam=0.7,
                         ensemble=PointMass(V0))
        sp = SpectralPoint(0.3, 0.2)
        prob = FixedPointProblem(mod, sp)
        shifted = onsite(mod) - sp.z * np.eye(m)
        G = np.array([random_herglotz(m, rng) for _ in range(3)])
        for x in (G[0], G[:1], G):
            got = prob.forward_map(x)
            assert got.shape == x.shape
            want = [resolvent(shifted, mod.K * g).tobytes()
                    for g in x.reshape(-1, m, m)]
            assert [g.tobytes() for g in got.reshape(-1, m, m)] == want

    def test_initial_shape_checked(self, monkeypatch):
        # solve_forward rejects a wrong-shape guess before any map evaluation
        calls = []
        monkeypatch.setattr(FixedPointProblem, "forward_map",
                            lambda self, G: calls.append(G))
        with pytest.raises(ValueError, match=r"shape \(2, 2\), expected \(1, 1\)"):
            solve_forward(make_model(), SpectralPoint(0.0, 1.0), np.zeros((2, 2)))
        assert calls == []

    def test_onsite_includes_shifted_point_mass(self):
        V0 = ((0.2, 0.1), (0.1, -0.3))
        mod = make_model(a=(-0.5, 0.5), lam=2.0, ensemble=PointMass(V0))
        prob = FixedPointProblem(mod, SpectralPoint(0.0, 1.0))
        onsite = np.array([[-0.5 + 0.4, 0.2], [0.2, 0.5 - 0.6]])
        np.testing.assert_allclose(prob.forward_map(np.zeros((2, 2))),
                                   np.linalg.inv(onsite - 1j * np.eye(2)),
                                   rtol=1e-14)

    def test_default_guess_is_free_solution(self, monkeypatch):
        # without an initial guess, solve_forward's first iterate is the free
        # closed form at the point, eta = 0 included
        first = []
        real = FixedPointProblem.forward_map

        def recording(self, G):
            first.append(G.copy())
            return real(self, G)

        monkeypatch.setattr(FixedPointProblem, "forward_map", recording)
        mod = make_model(a=(-0.5, 0.5))
        sp = SpectralPoint(0.3, 0.7)
        solve_forward(mod, sp)
        np.testing.assert_allclose(first[0], free_forward_green(sp, mod))
        first.clear()
        solve_forward(mod, SpectralPoint(0.3, 0.0))
        np.testing.assert_allclose(first[0], -4.0 * a_e_matrix(0.3, mod))


class TestClosedFormColdStarts:
    """Fixed points with closed forms, solved from cold starts."""

    def test_scalar_free_from_zero(self, monkeypatch):
        monkeypatch.setattr(fp, "SOLVE_TOL", 1e-12)
        rep = solve_forward(make_model(), SpectralPoint(0.0, 1.0),
                            np.zeros((1, 1)))
        assert rep.residual <= 1e-12
        assert rep.solution[0, 0] == pytest.approx(1j * (np.sqrt(3) - 1),
                                                   abs=1e-11)

    def test_free_matrix_case(self):
        mod = make_model(K=3, a=(-0.7, 0.1, 0.4))
        sp = SpectralPoint(0.2, 0.8)
        rep = solve_forward(mod, sp, np.zeros((3, 3)))
        np.testing.assert_allclose(rep.solution, free_forward_green(sp, mod),
                                   atol=1e-10)

    def test_point_mass_quadratic_oracle(self):
        mod = make_model(lam=1.0, ensemble=PointMass(((1.0,),)))
        rep = solve_forward(mod, SpectralPoint(2.0, 0.1))
        want = herglotz_quadratic_root(2, 2 + 0.1j, 1.0)
        assert rep.solution[0, 0] == pytest.approx(want, abs=1e-10)


class TestNewton:
    def test_scalar_case_fast(self):
        rep = solve_forward(make_model(), SpectralPoint(0.0, 1.0),
                            np.array([[1j]]))
        assert rep.iterations <= 6
        assert rep.solution[0, 0] == pytest.approx(1j * (np.sqrt(3) - 1),
                                                   abs=1e-11)

    def test_matrix_free_case(self):
        mod = make_model(a=(-0.5, 0.5))
        sp = SpectralPoint(0.1, 0.6)
        free = free_forward_green(sp, mod)
        start = free + 0.05 * (random_symmetric(2, np.random.default_rng(3))
                               + 0.3j * np.eye(2))
        rep = solve_forward(mod, sp, start)
        np.testing.assert_allclose(rep.solution, free, atol=1e-12)

    def test_jacobian_scalar_value(self):
        # dR/dg = 1 - (K/4) g^2 at the scalar fixed point g = i(sqrt(3)-1)
        # for K=2, z=i evaluates to 1 + (2 - sqrt(3)) = 3 - sqrt(3).
        prob = FixedPointProblem(make_model(), SpectralPoint(0.0, 1.0))
        g = 1j * (np.sqrt(3) - 1)
        Phi = prob.forward_map(np.array([[g]]))
        J = fp._jacobian(prob, Phi)
        assert J[0, 0] == pytest.approx(3 - np.sqrt(3), abs=1e-10)

    def test_jacobian_matches_finite_differences(self, rng):
        # every unit direction of vec(G), skew ones included, through a plain
        # inverse: forward_map symmetrizes, so it only sees symmetric dG
        V0 = ((0.3, -0.2, 0.0), (-0.2, 0.1, 0.4), (0.0, 0.4, -0.5))
        mod = make_model(K=3, a=(-0.4, 0.0, 0.6), lam=0.8,
                         ensemble=PointMass(V0))
        z = 0.2 + 0.5j
        G = random_complex_symmetric(3, rng)
        J = fp._jacobian(FixedPointProblem(mod, SpectralPoint(z.real, z.imag)),
                         G - raw_residual(mod, z, G))
        h = 1e-7
        for c in range(9):
            dG = np.zeros(9, dtype=complex)
            dG[c] = 1.0
            dG = dG.reshape(3, 3)
            num = (raw_residual(mod, z, G + h * dG)
                   - raw_residual(mod, z, G - h * dG)) / (2 * h)
            np.testing.assert_allclose(num.ravel(), J[:, c], atol=1e-6)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_jacobian_matches_upper_slot_columns(self, m, rng):
        # oracle: the Jacobian built one symmetric unit direction at a time
        # and read on upper-triangle coordinates
        mod = make_model(K=3, a=(-0.4, 0.0, 0.6)[:m])
        prob = FixedPointProblem(mod, SpectralPoint(0.2, 0.5))
        Phi = prob.forward_map(random_complex_symmetric(m, rng))
        J = fp._jacobian(prob, Phi)
        slots = upper_slots(m)
        for j, k in slots:
            dG = np.zeros((m, m), dtype=complex)
            dG[j, k] = dG[k, j] = 1.0
            want = dG - 0.25 * mod.K * (Phi @ dG @ Phi)
            got = (J @ dG.ravel()).reshape(m, m)
            np.testing.assert_allclose([got[r, s] for r, s in slots],
                                       [want[r, s] for r, s in slots],
                                       rtol=1e-14, atol=1e-15)

    def test_quadratic_tail(self):
        rep = solve_forward(make_model(), SpectralPoint(0.0, 1.0),
                            np.array([[1j]]))
        hist = rep.residual_history
        pairs = [(hist[i], hist[i + 1]) for i in range(len(hist) - 1)
                 if hist[i + 1] > 1e-14]
        assert len(pairs) >= 2
        for r0, r1 in pairs:
            assert r1 <= 1e3 * r0 * r0

    def test_singular_jacobian_detected(self):
        # For K=4 the map sends G=-3 at z=2 to Phi = 1/(-2+3) = 1 exactly,
        # where 1 - (K/4) Phi^2 = 0: the Newton system is singular, and
        # every quantity involved is an exact float.
        mod = make_model(K=4)
        start = np.array([[-3.0]], dtype=complex)
        with pytest.raises(SingularJacobianError):
            solve_forward(mod, SpectralPoint(2.0, 0.0), start)

    def test_singular_jacobian_detected_m2(self):
        # a = (0, 0.5), K = 4, z = 2: G = -3 I maps to Phi = diag(1, 2/3), so
        # the (0, 0) entry of I - Phi (x) Phi is 1 - 1*1 = 0 exactly.
        mod = make_model(K=4, a=(0.0, 0.5))
        with pytest.raises(SingularJacobianError):
            solve_forward(mod, SpectralPoint(2.0, 0.0),
                          -3.0 * np.eye(2, dtype=complex))

    def test_no_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(fp, "SOLVE_TOL", 1e-12)
        monkeypatch.setattr(fp, "DEFAULT_NEWTON_MAX_ITER", 1)
        with pytest.raises(NoConvergenceError) as ei:
            solve_forward(make_model(), SpectralPoint(0.0, 1.0),
                          np.array([[1j]]))
        assert ei.value.iterations == 1
        assert ei.value.residual > 0


class TestSolveForward:
    def test_cold_start_converges(self):
        mod = make_model(lam=1.0, ensemble=PointMass(((1.0,),)))
        rep = solve_forward(mod, SpectralPoint(2.0, 0.1),
                            np.zeros((1, 1), dtype=complex))
        assert rep.residual <= 1e-11
        want = herglotz_quadratic_root(2, 2 + 0.1j, 1.0)
        assert rep.solution[0, 0] == pytest.approx(want, abs=1e-11)

    def test_exact_start_takes_no_step(self):
        # the exact solution as a start is accepted on its first map
        # evaluation: no Newton step is taken
        mod = make_model(a=(-0.5, 0.5))
        sp = SpectralPoint(0.2, 0.3)
        rep = solve_forward(mod, sp, free_forward_green(sp, mod))
        assert rep.iterations == 0
        assert rep.residual_history == (rep.residual,)
        assert rep.residual <= fp.SOLVE_TOL

    def test_converged_start_is_copied(self):
        # a guess that already meets SOLVE_TOL comes back as a copy, so the
        # report never aliases the caller's array
        mod = make_model(a=(-0.5, 0.5))
        sp = SpectralPoint(0.2, 0.3)
        start = free_forward_green(sp, mod)
        rep = solve_forward(mod, sp, start)
        assert rep.iterations == 0
        assert not np.shares_memory(rep.solution, start)
        np.testing.assert_array_equal(rep.solution, start)

    @pytest.mark.parametrize("skewed", [
        lambda free: np.array([[0.1j, 0.2], [0.0, 0.1j]]),
        lambda free: free + np.array([[0.0, 1e-6], [0.0, 0.0]])],
        ids=["upper", "free_plus_1e-6"])
    def test_non_symmetric_start_converges(self, skewed):
        # every Newton step is symmetric, so the skew part of a start would
        # stay in the iterate and stall the residual at its size
        mod = bench_point_mass()
        sp = SpectralPoint(0.3, 0.4)
        start = skewed(free_forward_green(sp, mod))
        kept = start.copy()
        rep = solve_forward(mod, sp, start)
        assert rep.residual <= fp.SOLVE_TOL
        np.testing.assert_array_equal(start, kept)
        np.testing.assert_allclose(rep.solution, diagonalized_solution(mod, sp.z),
                                   atol=1e-10, rtol=0)

    def test_cold_start_off_branch_raises(self):
        # Newton converges only locally: this cold start at eta = 0.01 lands
        # on a root with an eigenvalue of Im G below zero
        with pytest.raises(NoConvergenceError, match="dissipative"):
            solve_forward(off_branch_point_mass(),
                          SpectralPoint(OFF_BRANCH_E, 0.01))

    def test_warm_start_from_continuation_recovers_branch(self):
        mod = off_branch_point_mass()
        level = continuation_to_boundary(mod, OFF_BRANCH_E)[6]
        assert level.z.imag == 2.0 ** -6
        sp = SpectralPoint(OFF_BRANCH_E, 0.01)
        rep = solve_forward(mod, sp, level.solution)
        np.testing.assert_allclose(rep.solution, diagonalized_solution(mod, sp.z),
                                   atol=1e-10, rtol=0)
        assert rep.min_imag_eig > 0

    def test_diagonalization_oracle_m3(self):
        mod = m3_point_mass()
        sp = SpectralPoint(0.4, 0.2)
        rep = solve_forward(mod, sp)
        np.testing.assert_allclose(rep.solution,
                                   diagonalized_solution(mod, sp.z),
                                   atol=1e-10)
        assert rep.herglotz

    def test_history_one_entry_per_iterate(self, monkeypatch):
        seen = []
        real = FixedPointProblem.forward_map

        def recording(self, G):
            Phi = real(self, G)
            seen.append((G.copy(), float(np.abs(G - Phi).max())))
            return Phi

        monkeypatch.setattr(FixedPointProblem, "forward_map", recording)
        rep = solve_forward(bench_point_mass(), SpectralPoint(0.3, 0.4),
                            np.zeros((2, 2), dtype=complex))
        assert len(seen) == len(rep.residual_history) == rep.iterations + 1
        assert list(rep.residual_history) == [r for _, r in seen]
        np.testing.assert_array_equal(seen[-1][0], rep.solution)
        assert rep.residual == rep.residual_history[-1] <= fp.SOLVE_TOL

    def test_report_certificate(self):
        mod = make_model()
        rep = solve_forward(mod, SpectralPoint(0.3, 0.8))
        prob = FixedPointProblem(mod, SpectralPoint(0.3, 0.8))
        G = rep.solution
        assert rep.residual == float(np.abs(G - prob.forward_map(G)).max())
        assert rep.residual <= fp.SOLVE_TOL
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
            assert rep.residual <= fp.SOLVE_TOL
            low = min_imag_eigenvalue(rep.solution)
            assert low >= -1e-10
            if rep.z.imag > 0:
                assert low > 0

    def test_outside_band_flags_real_solution(self):
        E = np.sqrt(2.0) + 0.5
        reports = continuation_to_boundary(make_model(), E)
        last = reports[-1]
        assert last.residual <= fp.SOLVE_TOL
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
        # every eta > 0 level, predicted or not, on 15 energies across and
        # beyond the bands
        mod = model()
        for E in np.linspace(-2.8, 2.8, 15):
            for rep in continuation_to_boundary(mod, E):
                if rep.z.imag > 0:
                    np.testing.assert_allclose(
                        rep.solution, diagonalized_solution(mod, rep.z),
                        atol=1e-10, rtol=0)

    def test_free_boundary_across_band_edges(self):
        # the secant predictor must not jump branches near the edges +-sqrt 2,
        # where G(E) has a square-root singularity
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
        # at a window edge the fixed point is a double root, so the eta = 0
        # solve leaves Im G of order sqrt(SOLVE_TOL) (1e-6 here) where the
        # limit is real; just inside, min eig Im G is 6e-3 and 0.1
        mod = make_model(K=K, a=a)
        for sign in (1.0, -1.0):
            assert not continuation_to_boundary(mod, sign * edge)[-1].herglotz
            assert continuation_to_boundary(mod, sign * inside)[-1].herglotz

    def test_predictor_saves_iterations(self):
        # summed over the 28 levels of each continuation; warm-starting every
        # level from the last solution took 942 on these energies
        mod = bench_point_mass()
        runs = {E: continuation_to_boundary(mod, E)
                for E in (-2.1, -1.0, 0.0, 0.55, 1.7)}
        assert sum(r.iterations for reps in runs.values() for r in reps) < 600
        # at an interior energy the eta = 0 guess 2 G(i eta) - G(2 i eta)
        # is within one step of the boundary solution
        assert runs[0.0][-1].herglotz
        assert runs[0.0][-1].iterations <= 1

    def test_eta_schedule_pinned(self):
        # the benchmark's continuation check zips its reports with this list
        want = tuple(0.5 ** k for k in range(27)) + (0.0,)
        assert fp.ETA_SCHEDULE == want
        reports = continuation_to_boundary(bench_point_mass(), 0.3)
        assert len(reports) == 28
        assert tuple(r.z.imag for r in reports) == want
        assert all(r.z.real == 0.3 for r in reports)

    def test_every_level_dissipative_on_seeded_energies(self):
        # the continuation is the only globalization of the Newton corrector
        mod = bench_point_mass()
        for E in np.random.default_rng(2011).uniform(-2.5, 2.5, 200):
            reports = continuation_to_boundary(mod, float(E))
            assert len(reports) == len(fp.ETA_SCHEDULE)
            for rep in reports[:-1]:
                assert min_imag_eigenvalue(rep.solution) >= -HERGLOTZ_SLACK

    def test_breakdown_wraps_solver_failure(self, monkeypatch):
        def stuck(model, point, initial=None):
            raise NoConvergenceError("stuck", residual=1.0, iterations=5)

        monkeypatch.setattr(fp, "solve_forward", stuck)
        with pytest.raises(ContinuationBreakdownError) as ei:
            continuation_to_boundary(make_model(), 0.0)
        assert ei.value.eta == 1.0

    def test_breakdown_on_lost_branch(self, monkeypatch):
        # every solve finds min eig(Im G) = -1: a root off the dissipative branch
        monkeypatch.setattr(fp, "min_imag_eigenvalue", lambda G: -1.0)
        with pytest.raises(ContinuationBreakdownError) as ei:
            continuation_to_boundary(make_model(), 0.0)
        assert ei.value.eta == 1.0
        assert "dissipative" in str(ei.value)

    def test_point_mass_boundary_inside_shifted_band(self):
        # V0 = 1 with lam = 0.5 shifts the band by 0.5; E = 0.5 sits at
        # its center, so the boundary solution is i*sqrt(2)/1 again in
        # the shifted variable.
        mod = make_model(lam=0.5, ensemble=PointMass(((1.0,),)))
        last = continuation_to_boundary(mod, 0.5)[-1]
        assert last.solution[0, 0] == pytest.approx(1j * np.sqrt(2),
                                                    abs=1e-10)
        assert last.herglotz
