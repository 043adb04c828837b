"""Acceptance suite: nine end-to-end criteria, one printed verdict line each.

Every test prints exactly one ``[criterion N] PASS|FAIL ...`` line (bypassing
capture so the verdicts always reach the terminal) and then asserts.  The
tolerances and runtime budgets are the product's acceptance contract; numeric
targets come from closed forms reproduced independently in the unit suites.
"""

import itertools
import json
import math
import time

import numpy as np
from conftest import random_herglotz, random_psd, spawned_seed

from bethestrip.cli import main as cli_main
from bethestrip.ed import build_tree, draw_site_potentials, root_green_block
from bethestrip.errors import OutOfBandError
from bethestrip.fixedpoint import continuation_to_boundary, solve_forward
from bethestrip.free import free_dos, free_forward_green
from bethestrip.linalg import SpectralPoint, min_imag_eigenvalue, resolvent
from bethestrip.linearization import (build_ce_matrix, enumerate_indices,
                                      gap_kce, lambda_j)
from bethestrip.model import (GOE, BetheStripModel, DiagonalIID, PointMass,
                              band_intersection)
from bethestrip.recursion import (ac_indicator, eta_continuation,
                                  fixed_point_residual, measure_stationary,
                                  population_init, population_run,
                                  sample_tree_given)
from bethestrip.rng import keyed_rng

GOE2 = GOE()

# (width profile, K) pairs reused across criteria: strictly sorted diagonals
PROFILES = {1: (0.1,), 2: (-0.4, 0.3), 3: (-0.5, 0.0, 0.4)}


def verdict(capsys, num, name, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def interior_energy(model, frac):
    window = band_intersection(model)
    return window.lo + (frac + 1.0) / 2.0 * (window.hi - window.lo)


def test_criterion_1_free_closed_form(capsys):
    start = time.perf_counter()
    model = BetheStripModel(K=2, a=(0.0,), lam=0.0, ensemble=GOE2)
    reports = continuation_to_boundary(model, 0.0)
    center_dev = abs(reports[-1].solution[0, 0] - 1j * math.sqrt(2.0))
    grid_dev = 0.0
    levels = list(reports)
    for E in np.linspace(-1.4, 1.4, 200):
        path = continuation_to_boundary(model, float(E))
        levels += path
        want = free_forward_green(SpectralPoint(float(E), 0.0), model)
        grid_dev = max(grid_dev, float(np.max(np.abs(path[-1].solution - want))))
    # every level of every continuation, through a plain inverse
    G = np.array([rep.solution for rep in levels])
    shifted = model.a_matrix - np.array([rep.z for rep in levels])[:, None, None]
    residual = float(np.max(np.abs(G - np.linalg.inv(shifted - 0.25 * model.K * G))))
    low = min_imag_eigenvalue(G)
    elapsed = time.perf_counter() - start
    ok = (center_dev <= 1e-10 and grid_dev <= 1e-10 and residual <= 1e-12
          and low >= -1e-10 and elapsed < 1.0)
    verdict(capsys, 1, "free closed form via continuation", ok,
            f"center dev {center_dev:.2e}, 200-point grid dev {grid_dev:.2e} "
            f"(tol 1e-10), {len(levels)} levels: max residual {residual:.2e} "
            f"(tol 1e-12), min eig Im G {low:.2e} (>= -1e-10), "
            f"{elapsed:.2f}s (< 1s)")


def test_criterion_2_eigenvalue_law(capsys):
    start = time.perf_counter()
    combos = list(itertools.product(PROFILES.values(), (2, 3, 4),
                                    (-0.7, -0.2, 0.3)))
    combos += [(PROFILES[1], 2, f) for f in (-0.45, 0.05, 0.55)]
    assert len(combos) == 30
    worst_modulus = 0.0
    min_gap = math.inf
    for a, K, frac in combos:
        model = BetheStripModel(K=K, a=a, lam=0.0, ensemble=GOE2)
        E = interior_energy(model, frac)
        for J in enumerate_indices(len(a), 3):
            value = lambda_j(E, model, J)
            worst_modulus = max(worst_modulus,
                                abs(abs(value) - K ** (-sum(J))))
            min_gap = min(min_gap, abs(K * value - 1.0))
    scalar = BetheStripModel(K=2, a=(0.0,), lam=0.0, ensemble=GOE2)
    center_gap = gap_kce(0.0, scalar, 3)
    elapsed = time.perf_counter() - start
    ok = (worst_modulus <= 1e-12 and min_gap > 0.0
          and abs(center_gap - 0.5) <= 1e-12 and elapsed < 1.0)
    verdict(capsys, 2, "eigenvalue modulus law and gap", ok,
            f"30 combos, |J|<=3: max ||lambda|-K^-|J|| {worst_modulus:.2e} "
            f"(tol 1e-12), min |K*lambda - 1| {min_gap:.3f} > 0, "
            f"center gap {center_gap:.12f} (want 0.5), "
            f"{elapsed:.2f}s (< 1s)")


def test_criterion_3_ce_matrix_reconstruction(capsys):
    start = time.perf_counter()
    worst_tri = 0.0
    worst_diag = 0.0
    for m in (1, 2):
        for K in (2, 3):
            model = BetheStripModel(K=K, a=PROFILES[m], lam=0.0, ensemble=GOE2)
            for frac in (-0.6, 0.0, 0.5):
                E = interior_energy(model, frac)
                for d in (0, 1, 2):
                    op = build_ce_matrix(E, model, d)
                    degrees = [sum(J) for J in op.basis]
                    for r in range(len(degrees)):
                        for c in range(len(degrees)):
                            if r != c and degrees[r] >= degrees[c]:
                                worst_tri = max(worst_tri,
                                                abs(op.entries[r, c]))
                        want = lambda_j(E, model, op.basis[r])
                        worst_diag = max(worst_diag,
                                         abs(op.entries[r, r] - want))
    scalar = BetheStripModel(K=2, a=(0.0,), lam=0.0, ensemble=GOE2)
    frozen = np.array([[1.0, 0.0, 0.0],
                       [0.0, -0.5, -math.sqrt(2.0)],
                       [0.0, 0.0, 0.25]])
    frozen_dev = float(np.max(np.abs(
        build_ce_matrix(0.0, scalar, 2).entries - frozen)))
    elapsed = time.perf_counter() - start
    ok = (worst_tri < 1e-10 and worst_diag <= 1e-8 and frozen_dev <= 1e-8
          and elapsed < 5.0)
    verdict(capsys, 3, "linearized operator matrix", ok,
            f"triangularity residual {worst_tri:.2e} (< 1e-10), "
            f"diagonal dev {worst_diag:.2e} (tol 1e-8), "
            f"frozen 3x3 dev {frozen_dev:.2e} (tol 1e-8), "
            f"{elapsed:.2f}s (< 5s)")


def test_criterion_4_oracle_equivalence(capsys):
    start = time.perf_counter()
    sp = SpectralPoint(0.3, 0.05)
    worst = 0.0
    for K in (2, 3):
        for m in (1, 2, 3):
            model = BetheStripModel(K=K, a=PROFILES[m], lam=0.7,
                                    ensemble=GOE2)
            for depth in range(1, 6):
                tree = build_tree(K, depth, m)
                seed = spawned_seed(41, K, m, depth)
                for realization in range(20):
                    pots = draw_site_potentials(model, tree, seed,
                                                realization=realization)
                    recursed = sample_tree_given(sp, model, tree, pots)
                    dense = root_green_block(sp, model, tree, pots)
                    worst = max(worst, float(np.max(np.abs(recursed - dense))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 30.0
    verdict(capsys, 4, "recursion vs sparse-LU solve", ok,
            f"600 shared-realization cases, max deviation {worst:.2e} "
            f"(tol 1e-8), {elapsed:.1f}s (< 30s)")


def test_criterion_5_herglotz_and_norm_invariants(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(20260814)
    ensembles = [GOE2, DiagonalIID("uniform"), DiagonalIID("gauss"),
                 DiagonalIID("bernoulli")]
    worst_imag = math.inf
    worst_norm_margin = math.inf
    for i in range(10_000):
        m = int(rng.integers(1, 4))
        K = int(rng.integers(2, 5))
        a = tuple(sorted(rng.uniform(-1.0, 1.0, size=m)))
        lam = float(rng.uniform(0.0, 2.0))
        model = BetheStripModel(K=K, a=a, lam=lam, ensemble=ensembles[i % 4])
        eta = float(10.0 ** rng.uniform(-3.0, 0.0))
        sp = SpectralPoint(float(rng.uniform(-3.0, 3.0)), eta)
        V = model.ensemble.sample(model.m, rng)
        children = [random_herglotz(m, rng, eta=float(rng.uniform(0.0, 0.5)))
                    for _ in range(K)]
        G = resolvent(model.a_matrix, sum(children), V, model.lam, sp.z)
        worst_imag = min(worst_imag, min_imag_eigenvalue(G))
        worst_norm_margin = min(worst_norm_margin,
                                1.0 / eta - float(np.linalg.norm(G, 2)))
    elapsed = time.perf_counter() - start
    ok = worst_imag >= -1e-10 and worst_norm_margin >= 0.0 and elapsed < 10.0
    verdict(capsys, 5, "dissipative-branch invariants", ok,
            f"10^4 forward steps: min imag eigenvalue {worst_imag:.2e} "
            f"(>= -1e-10), min (1/eta - ||G||) {worst_norm_margin:.2e} >= 0, "
            f"{elapsed:.1f}s (< 10s)")


def test_criterion_6_dos_consistency(capsys):
    start = time.perf_counter()
    # (a) zero coupling at eta = 1e-6: population equals the closed form
    model0 = BetheStripModel(K=2, a=(-0.5, 0.5), lam=0.0, ensemble=GOE2)
    free_dev = 0.0
    for i, E in enumerate(np.linspace(-3.0, 3.0, 101)):
        sp = SpectralPoint(float(E), 1e-6)
        pool = population_init(sp, model0, 64, spawned_seed(61, i))
        est = measure_stationary(pool, model0, i, sweeps=2,
                                 draws_per_sweep=64)[1].dos
        free_dev = max(free_dev,
                       abs(float(est.mean) - free_dos(sp, model0)))

    # (b) weak GOE coupling at eta = 0.05, pool 10^4
    model = BetheStripModel(K=2, a=(-0.5, 0.5), lam=0.1, ensemble=GOE2)
    eta = 0.05
    grid = np.linspace(-4.0, 4.0, 81)
    dos_vals = []
    for i, E in enumerate(grid):
        record = eta_continuation(model, float(E), (eta,), pool_size=10_000,
                                  seed=spawned_seed(62, i), burn_in=40,
                                  measure_sweeps=10, draws_per_sweep=2000)[0]
        dos_vals.append(float(record.dos.mean))
    dos_vals = np.asarray(dos_vals)
    total_mass = float(np.trapezoid(dos_vals, grid))
    # spectrum hull with the GOE disorder cut at 4 sigma: |eig V| <= 4 sqrt(m)
    r = abs(model.lam) * 4.0 * math.sqrt(model.m)
    lo, hi = model.a[0] - model.sqrt_k - r, model.a[-1] + model.sqrt_k + r
    outside = (grid < lo - 5 * eta) | (grid > hi + 5 * eta)
    tail_max = float(dos_vals[outside].max()) if outside.any() else 0.0
    elapsed = time.perf_counter() - start
    ok = (free_dev <= 1e-6 and abs(total_mass - 1.0) <= 2e-2
          and tail_max < 1e-2 and elapsed < 300.0)
    verdict(capsys, 6, "density-of-states consistency", ok,
            f"zero-coupling dev {free_dev:.2e} (tol 1e-6), "
            f"disordered mass {total_mass:.4f} (tol 2e-2), "
            f"tail max {tail_max:.2e} (< 1e-2, {int(outside.sum())} points), "
            f"{elapsed:.0f}s (< 300s)")


def test_criterion_7_ac_indicator_contrast(capsys):
    start = time.perf_counter()
    etas = (1e-1, 1e-2, 1e-3)
    ratios = {}
    for lam in (0.1, 10.0):
        model = BetheStripModel(K=2, a=(-0.5, 0.5), lam=lam, ensemble=GOE2)
        records = eta_continuation(model, 0.0, etas, pool_size=20_000,
                                   seed=71, burn_in=100, relax_sweeps=50,
                                   measure_sweeps=20, draws_per_sweep=2000)
        ratios[lam], _, _ = ac_indicator(records)
    elapsed = time.perf_counter() - start
    ok = (0.9 <= ratios[0.1] <= 1.1 and ratios[10.0] > 2.0
          and elapsed < 600.0)
    verdict(capsys, 7, "bounded-moment indicator contrast", ok,
            f"E Tr|G|^2 ratio eta 1e-2 -> 1e-3: weak coupling "
            f"{ratios[0.1]:.3f} (in [0.9, 1.1]), strong coupling "
            f"{ratios[10.0]:.1f} (> 2); indicator only, not a proof; "
            f"{elapsed:.0f}s (< 600s)")


def test_criterion_8_population_fixed_point(capsys):
    start = time.perf_counter()
    # (a) deterministic disorder: the pool collapses onto the closed-form
    # fixed point
    V0 = np.array([[0.3, 0.1], [0.1, -0.2]])
    model_pm = BetheStripModel(K=2, a=(-0.5, 0.5), lam=0.7,
                               ensemble=PointMass(V0))
    sp = SpectralPoint(0.2, 0.2)
    target = solve_forward(model_pm, sp).solution
    pool = population_init(sp, model_pm, 2000, seed=81)
    pool = population_run(pool, model_pm, 300)
    spread = float(np.max(np.abs(pool.samples - pool.samples.mean(axis=0))))
    point_dev = float(np.max(np.abs(pool.samples.mean(axis=0) - target)))

    # (b) random disorder: weak-sense residual within statistical noise
    model = BetheStripModel(K=2, a=(-0.5, 0.5), lam=0.1, ensemble=GOE2)
    zp = SpectralPoint(0.2, 0.01)
    pool = population_init(zp, model, 5000, seed=82)
    pool = population_run(pool, model, 300)
    rng = np.random.default_rng(83)
    mats = [random_psd(2, rng) for _ in range(10)]
    res = fixed_point_residual(pool, model, keyed_rng(84, 0), mats, 2000)
    elapsed = time.perf_counter() - start
    ok = (spread < 1e-9 and point_dev < 1e-8 and res.within_noise
          and elapsed < 300.0)
    verdict(capsys, 8, "population fixed point", ok,
            f"point-mass dev {point_dev:.2e} (tol 1e-8, spread {spread:.1e}), "
            f"weak residual {res.residual:.2e} vs 3 se "
            f"{3 * res.combined_se:.2e} over 10 test matrices, "
            f"{elapsed:.0f}s (< 300s)")


# The six subcommand configs of criterion 9; tests/golden pins their outputs
# at seed 13.
CLI_RUNS = {
    "free-profile": ["--K", "2", "--A", "diag:-0.5,0.5",
                     "--E-grid", "-2:2:9", "--eta-schedule", "0.05,0"],
    "dos-scan": ["--K", "2", "--m", "1", "--lambda", "0.1",
                 "--E-grid", "-1:1:3", "--eta-schedule", "0.1,0.05",
                 "--pool", "64", "--sweeps", "4", "--burnin", "8",
                 "--samples", "40"],
    "ac-indicator": ["--K", "2", "--m", "1", "--lambda", "0.1",
                     "--E-grid", "0:0:1", "--eta-schedule", "0.2,0.1,0.05",
                     "--pool", "64", "--sweeps", "4", "--burnin", "8",
                     "--samples", "40"],
    "gap-scan": ["--K", "2", "--m", "2", "--A", "diag:-0.3,0.3",
                 "--E-grid", "-1:1:9", "--degree", "2"],
    "ce-spectrum": ["--K", "2", "--m", "1", "--E-grid", "-1:1:5",
                    "--degree", "2"],
    "crosscheck": ["--K", "2", "--A", "diag:-0.5,0.5", "--lambda", "0.5",
                   "--E-grid", "0.3:0.3:1", "--depth", "3",
                   "--samples", "10"],
}


def test_criterion_9_cli_determinism(capsys, tmp_path):
    start = time.perf_counter()
    all_same = True
    for sub, args in CLI_RUNS.items():
        blobs = []
        for tag, workers in (("a", "1"), ("b", "1"), ("c", "3")):
            out = tmp_path / f"{sub}-{tag}.out"
            rc = cli_main([sub, *args, "--seed", "13", "--workers", workers,
                           "--out", str(out)])
            assert rc == 0, f"{sub} exited {rc}"
            blobs.append(out.read_bytes())
        all_same = all_same and blobs[0] == blobs[1] == blobs[2]
    elapsed = time.perf_counter() - start
    ok = all_same and elapsed < 60.0
    verdict(capsys, 9, "byte-deterministic CLI outputs", ok,
            f"6 subcommands x (rerun, workers 1 vs 3) byte-identical: "
            f"{all_same}, {elapsed:.1f}s")
