"""End-to-end tests of the command-line driver.

Each run goes through ``bethestrip.cli.main`` in-process with files under
tmp_path; assertions cover column schemas, frozen closed-form rows, the
manifest contract, byte-determinism (reruns, worker counts), config-file
merging, and the exit-code contract (0/2/3/4).
"""

import ast
import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import bethestrip
from bethestrip import cli
from bethestrip import linearization as lin
from bethestrip import recursion
from bethestrip.cli import main
from bethestrip.ed import build_tree, draw_site_potentials, root_green_block
from bethestrip.free import free_dos, free_full_green
from bethestrip.linalg import SpectralPoint
from bethestrip.linearization import OperatorMatrix, enumerate_indices
from bethestrip.model import GOE, BetheStripModel, parse_ensemble_spec
from bethestrip.recursion import sample_tree
from test_acceptance import CLI_RUNS


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def csv_table(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def manifest_of(out):
    return json.loads((out.parent / (out.name + ".manifest.json")).read_text())


class TestFreeProfile:
    def test_frozen_scalar_profile(self, tmp_path):
        out = tmp_path / "fp.csv"
        rc = main(["free-profile", "--K", "2", "--m", "1", "--E-grid", "-2:2:5",
                   "--eta-schedule", "0", "--out", str(out)])
        assert rc == 0
        header, rows = csv_table(out)
        assert len(rows) == 5
        center = rows[2]
        assert float(center[0]) == 0.0
        g0_im = float(center[header.index("g0_im_1")])
        assert g0_im == pytest.approx(math.sqrt(2.0), abs=1e-12)
        # shortest-round-trip float rendering, byte for byte
        assert "1.4142135623730951" in ",".join(center)

    def test_column_schema_m2(self, tmp_path):
        out = tmp_path / "fp.csv"
        rc = main(["free-profile", "--K", "2", "--A", "diag:-0.5,0.5",
                   "--E-grid", "0:0:1", "--eta-schedule", "0", "--out", str(out)])
        assert rc == 0
        header, rows = csv_table(out)
        assert len(header) == 1 + 1 + 4 * 2 + 2 * 2
        assert header == ["E", "eta",
                          "g0_re_1", "g0_im_1", "g0_re_2", "g0_im_2",
                          "gfull_re_1", "gfull_im_1", "gfull_re_2", "gfull_im_2",
                          "ae_re_1", "ae_im_1", "ae_re_2", "ae_im_2"]
        assert manifest_of(out)["schema"][out.name] == header

    def test_ae_nan_for_positive_eta_and_outside_window(self, tmp_path):
        out = tmp_path / "fp.csv"
        rc = main(["free-profile", "--K", "2", "--m", "1", "--E-grid", "0:2:2",
                   "--eta-schedule", "0.1,0", "--out", str(out)])
        assert rc == 0
        header, rows = csv_table(out)
        k = header.index("ae_re_1")
        by_key = {(float(r[0]), float(r[1])): r for r in rows}
        assert by_key[(0.0, 0.1)][k] == "nan"          # only defined at eta=0
        assert by_key[(0.0, 0.0)][k] != "nan"          # inside the window
        assert by_key[(2.0, 0.0)][k] == "nan"          # outside the window
        warnings = manifest_of(out)["warnings"]
        assert len(warnings) == 1 and "1 eta=0 rows" in warnings[0]

    def test_ae_finite_at_window_endpoints(self, tmp_path):
        # the grid ends are band_intersection's lo and hi, 1/2 - sqrt 2 and
        # sqrt 2 - 1/2, where A_E is defined
        out = tmp_path / "fp.csv"
        rc = main(["free-profile", "--K", "2", "--A", "diag:-0.5,0.5",
                   "--E-grid=-0.9142135623730951:0.9142135623730951:3",
                   "--eta-schedule", "0", "--out", str(out)])
        assert rc == 0
        header, rows = csv_table(out)
        ae = [i for i, name in enumerate(header) if name.startswith("ae_")]
        for row in (rows[0], rows[-1]):
            assert all(math.isfinite(float(row[i])) for i in ae)
        assert manifest_of(out)["warnings"] == []

    def test_all_cells_round_trip(self, tmp_path):
        out = tmp_path / "fp.csv"
        main(["free-profile", "--K", "3", "--A", "diag:-0.4,0.3",
              "--E-grid", "-2:2:7", "--eta-schedule", "0.05,0",
              "--out", str(out)])
        _, rows = csv_table(out)
        for row in rows:
            for cell in row:
                assert repr(float(cell)) == cell

    def test_empty_grid_is_config_error(self, tmp_path):
        rc = main(["free-profile", "--E-grid", "0:1:0",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2


class TestManifest:
    def test_contract(self, tmp_path):
        out = tmp_path / "fp.csv"
        main(["free-profile", "--K", "2", "--m", "1", "--E-grid", "-1:1:3",
              "--eta-schedule", "0", "--seed", "9", "--out", str(out)])
        man = manifest_of(out)
        assert man["artifact"] == {"name": "bethestrip", "version": "0.3.0"}
        assert man["schema_version"] == 2
        assert man["outputs"][out.name]["sha256"] == sha(out)
        assert man["outputs"][out.name]["bytes"] == len(out.read_bytes())
        assert man["wall_clock_seconds"] >= 0.0
        cfg = man["config"]
        assert cfg["subcommand"] == "free-profile"
        assert cfg["K"] == 2 and cfg["m"] == 1 and cfg["seed"] == 9
        assert cfg["E-grid"] == "-1.0:1.0:3"
        assert cfg["ensemble"] == "goe"

    def test_versions_agree(self, tmp_path):
        # stream version 2 is package 0.3.0 and manifest schema 2, in every place
        out = tmp_path / "fp.csv"
        main(["free-profile", "--E-grid", "0:0:1", "--eta-schedule", "0",
              "--out", str(out)])
        man = manifest_of(out)
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        assert f'\nversion = "{man["artifact"]["version"]}"\n' in pyproject
        assert man["artifact"]["version"] == bethestrip.__version__ == "0.3.0"
        assert man["schema_version"] == 2


class TestDosScan:
    ARGS = ["dos-scan", "--K", "2", "--m", "1", "--lambda", "0.1",
            "--E-grid", "-1:1:2", "--eta-schedule", "0.1,0.05",
            "--pool", "64", "--sweeps", "4", "--burnin", "8",
            "--samples", "40", "--seed", "11"]

    def test_schema_and_row_layout(self, tmp_path):
        out = tmp_path / "dos.csv"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        header, rows = csv_table(out)
        assert header == ["E", "eta", "dos", "dos_stderr", "ETrG2",
                          "ETrG2_stderr"]
        assert [(float(r[0]), float(r[1])) for r in rows] == \
            [(-1.0, 0.1), (-1.0, 0.05), (1.0, 0.1), (1.0, 0.05)]
        assert all(float(r[2]) > 0 and float(r[4]) > 0 for r in rows)

    def test_zero_coupling_matches_closed_form(self, tmp_path):
        out = tmp_path / "dos.csv"
        rc = main(["dos-scan", "--K", "2", "--m", "1", "--lambda", "0",
                   "--E-grid", "-1:1:5", "--eta-schedule", "0.1",
                   "--pool", "64", "--sweeps", "2", "--burnin", "4",
                   "--samples", "16", "--out", str(out)])
        assert rc == 0
        model = BetheStripModel(K=2, a=(0.0,), lam=0.0, ensemble=GOE())
        _, rows = csv_table(out)
        for row in rows:
            E, eta, dos = float(row[0]), float(row[1]), float(row[2])
            assert dos == pytest.approx(
                free_dos(SpectralPoint(E, eta), model), abs=1e-9)
            assert float(row[3]) < 1e-12   # deterministic draws at lambda=0

    def test_sweep_defaults_are_the_library_defaults(self, tmp_path):
        default, explicit = tmp_path / "default.csv", tmp_path / "explicit.csv"
        args = ["dos-scan", "--m", "1", "--lambda", "0.1", "--E-grid", "0.5:0.5:1",
                "--eta-schedule", "0.1,0.05", "--pool", "32", "--samples", "8"]
        assert main(args + ["--out", str(default)]) == 0
        assert main(args + ["--burnin", "30", "--sweeps", "50",
                            "--out", str(explicit)]) == 0
        echo = manifest_of(default)["config"]
        assert (echo["burnin"], echo["sweeps"]) == \
            (recursion.BURN_IN, recursion.RELAX_SWEEPS)
        library = inspect.signature(recursion.eta_continuation).parameters
        assert (library["burn_in"].default, library["relax_sweeps"].default) == \
            (recursion.BURN_IN, recursion.RELAX_SWEEPS)
        assert default.read_bytes() == explicit.read_bytes()

    def test_byte_determinism_across_runs_and_workers(self, tmp_path):
        outs = [tmp_path / f"d{i}.csv" for i in range(3)]
        main(self.ARGS + ["--workers", "1", "--out", str(outs[0])])
        main(self.ARGS + ["--workers", "1", "--out", str(outs[1])])
        main(self.ARGS + ["--workers", "3", "--out", str(outs[2])])
        assert sha(outs[0]) == sha(outs[1]) == sha(outs[2])

    def test_one_thread_pool_per_run(self, tmp_path, monkeypatch):
        built = []
        init = ThreadPoolExecutor.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ThreadPoolExecutor, "__init__", counting)
        # 2 energies x 2 etas, 52 sweeps each: one executor for the whole run
        rc = main(self.ARGS + ["--workers", "2", "--out", str(tmp_path / "d.csv")])
        assert rc == 0
        assert len(built) == 1

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(self.ARGS + ["--out", str(a)])
        main(self.ARGS[:-1] + ["12", "--out", str(b)])
        assert sha(a) != sha(b)

    def test_eta_schedule_validation(self, tmp_path):
        out = str(tmp_path / "x.csv")
        base = ["dos-scan", "--E-grid", "0:0:1", "--pool", "64", "--out", out]
        assert main(base + ["--eta-schedule", "0.05,0.1"]) == 2   # increasing
        assert main(base + ["--eta-schedule", "0.1,0"]) == 2      # zero level
        assert main(base[:2] + base[3:]) == 2                     # missing


class TestAcIndicator:
    def test_zero_coupling_ratio_is_one(self, tmp_path):
        out = tmp_path / "ac.csv"
        rc = main(["ac-indicator", "--K", "2", "--m", "1", "--lambda", "0",
                   "--E-grid", "0:0:1", "--eta-schedule", "0.2,0.1,0.05",
                   "--pool", "64", "--sweeps", "2", "--burnin", "4",
                   "--samples", "16", "--out", str(out)])
        assert rc == 0
        header, rows = csv_table(out)
        assert header == ["E", "eta", "etrg2", "etrg2_stderr"]
        assert len(rows) == 3
        verdict = json.loads((tmp_path / "ac.csv.verdict.json").read_text())
        res = verdict["results"][0]
        assert res["bounded"] is True
        # at zero coupling the ratio is the closed-form quotient
        # Tr|G(i*0.05)|^2 / Tr|G(i*0.1)|^2 (slightly above 1 at finite eta)
        # up to the geometric warm-start relaxation residual, ~1e-3 here
        model = BetheStripModel(K=2, a=(0.0,), lam=0.0, ensemble=GOE())
        tr = [float(np.trace(np.abs(free_full_green(
            SpectralPoint(0.0, eta), model)) ** 2).real)
            for eta in (0.1, 0.05)]
        assert res["ratio"] == pytest.approx(tr[1] / tr[0], abs=5e-3)
        assert res["ratio"] == pytest.approx(1.0, abs=0.05)
        assert verdict["window"] == [0.9, 1.1]
        assert "indicator" in verdict["note"]
        man = manifest_of(out)
        assert set(man["outputs"]) == {"ac.csv", "ac.csv.verdict.json"}

    def test_verdict_reports_the_window_used(self, tmp_path, monkeypatch):
        # the ratio at zero coupling is ~1, outside this window, so the
        # verdict must say not bounded and name the window it was judged by
        monkeypatch.setattr(recursion, "AC_RATIO_LO", 0.5)
        monkeypatch.setattr(recursion, "AC_RATIO_HI", 0.75)
        out = tmp_path / "ac.csv"
        assert main(["ac-indicator", "--K", "2", "--m", "1", "--lambda", "0",
                     "--E-grid", "0:0:1", "--eta-schedule", "0.2,0.1,0.05",
                     "--pool", "64", "--sweeps", "2", "--burnin", "4",
                     "--samples", "16", "--out", str(out)]) == 0
        verdict = json.loads((tmp_path / "ac.csv.verdict.json").read_text())
        assert verdict["window"] == [0.5, 0.75]
        assert verdict["results"][0]["bounded"] is False

    def test_requires_three_eta_levels(self, tmp_path):
        rc = main(["ac-indicator", "--E-grid", "0:0:1",
                   "--eta-schedule", "0.1,0.05",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2


class TestGapScan:
    def test_frozen_center_gaps(self, tmp_path):
        out = tmp_path / "gap.csv"
        rc = main(["gap-scan", "--K", "2", "--m", "1", "--E-grid", "0:0:1",
                   "--degree", "2", "--out", str(out)])
        assert rc == 0
        header, rows = csv_table(out)
        assert header == ["E", "gap_kce", "min_dist_inv_k"]
        assert float(rows[0][1]) == pytest.approx(0.5, abs=1e-12)

    def test_frozen_center_gap_k3(self, tmp_path):
        out = tmp_path / "gap.csv"
        main(["gap-scan", "--K", "3", "--m", "1", "--E-grid", "0:0:1",
              "--out", str(out)])
        _, rows = csv_table(out)
        assert float(rows[0][1]) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_out_of_band_rows_skipped_with_warning(self, tmp_path):
        out = tmp_path / "gap.csv"
        rc = main(["gap-scan", "--K", "2", "--m", "1", "--E-grid", "-2:2:9",
                   "--out", str(out)])
        assert rc == 0
        _, rows = csv_table(out)
        assert len(rows) == 5                 # |E| < sqrt(2) survives
        warnings = manifest_of(out)["warnings"]
        assert len(warnings) == 1 and "skipped 4 of 9" in warnings[0]

    def test_degree_zero_falls_back_to_first_order(self, tmp_path):
        # the gap over an empty index set would be vacuous; degree 0 is
        # evaluated on the degree <= 1 basis, so the gap columns agree
        a, b = tmp_path / "d0.csv", tmp_path / "d1.csv"
        main(["gap-scan", "--K", "2", "--m", "2", "--A", "diag:-0.3,0.3",
              "--E-grid", "-0.5:0.5:5", "--degree", "0", "--out", str(a)])
        main(["gap-scan", "--K", "2", "--m", "2", "--A", "diag:-0.3,0.3",
              "--E-grid", "-0.5:0.5:5", "--degree", "1", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_one_basis_per_run_one_law_per_energy(self, tmp_path, monkeypatch):
        # the criterion-9 config: all 9 energies are inside the band window
        calls = {"enumerate_indices": 0, "eigenvalue_law": 0}

        def counted(name):
            real = getattr(lin, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in calls:
            wrapper = counted(name)
            monkeypatch.setattr(lin, name, wrapper)
            monkeypatch.setattr(cli, name, wrapper, raising=False)
        out = tmp_path / "gap.csv"
        assert main(["gap-scan", *CLI_RUNS["gap-scan"], "--out", str(out)]) == 0
        assert len(csv_table(out)[1]) == 9
        assert calls == {"enumerate_indices": 1, "eigenvalue_law": 9}


class TestCeSpectrum:
    def test_frozen_scalar_spectrum(self, tmp_path):
        out = tmp_path / "ce.csv"
        rc = main(["ce-spectrum", "--K", "2", "--m", "1", "--E-grid", "0:0:1",
                   "--degree", "2", "--out", str(out)])
        assert rc == 0
        header, rows = csv_table(out)
        assert header == ["E", "J", "degree", "lambda_re", "lambda_im",
                          "modulus", "k_power", "tri_residual"]
        assert [r[1] for r in rows] == ["0", "1", "2"]
        values = [float(r[3]) + 1j * float(r[4]) for r in rows]
        assert values == pytest.approx([1.0, -0.5, 0.25], abs=1e-12)
        assert all(float(r[7]) < 1e-10 for r in rows)

    def test_modulus_column_equals_k_power(self, tmp_path):
        out = tmp_path / "ce.csv"
        main(["ce-spectrum", "--K", "3", "--A", "diag:-0.4,0.2",
              "--E-grid", "-1:1:5", "--degree", "2", "--out", str(out)])
        _, rows = csv_table(out)
        assert len(rows) == 5 * 10            # C(3 + 2, 2) basis monomials
        for row in rows:
            assert float(row[5]) == pytest.approx(float(row[6]), abs=1e-12)

    def test_spectrum_conjugates_under_energy_reflection(self, tmp_path):
        # symmetric onsite diagonal: the eigenvalue multiset at -E is the
        # complex conjugate of the multiset at E
        args = ["ce-spectrum", "--K", "2", "--A", "diag:-0.3,0.3",
                "--degree", "2"]
        a, b = tmp_path / "plus.csv", tmp_path / "minus.csv"
        main(args + ["--E-grid", "0.7:0.7:1", "--out", str(a)])
        main(args + ["--E-grid", "-0.7:-0.7:1", "--out", str(b)])
        _, rows_a = csv_table(a)
        _, rows_b = csv_table(b)
        key = lambda z: (round(z.real, 9), round(z.imag, 9))
        lam_a = sorted((complex(float(r[3]), float(r[4])) for r in rows_a),
                       key=key)
        lam_b = sorted((complex(float(r[3]), -float(r[4])) for r in rows_b),
                       key=key)
        assert np.allclose(lam_a, lam_b, atol=1e-12)

    def test_triangularity_residual_matches_loop(self):
        def loop(basis, entries):
            worst = 0.0
            for r, Jr in enumerate(basis):
                for c, Jc in enumerate(basis):
                    if r != c and sum(Jr) >= sum(Jc):
                        worst = max(worst, abs(entries[r, c]))
            return worst

        basis = tuple(enumerate_indices(2, 2))
        rng = np.random.default_rng(5)
        stack = rng.normal(size=(4, 10, 10)) + 1j * rng.normal(size=(4, 10, 10))
        stack *= np.triu(np.ones((10, 10)), 1) + np.eye(10)  # above-diagonal ...
        stack[2, 7, 1] = 3.0 + 4.0j                           # ... plus one planted
        got = cli._triangularity_residual(OperatorMatrix(basis, stack))
        assert got == [loop(basis, e) for e in stack]
        assert got[2] == 5.0
        zero = OperatorMatrix(tuple(enumerate_indices(2, 0)), np.ones((3, 1, 1)))
        assert cli._triangularity_residual(zero) == [0.0, 0.0, 0.0]

    def test_out_of_band_is_domain_error(self, tmp_path):
        rc = main(["ce-spectrum", "--K", "2", "--E-grid", "2:2:1",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 3


class TestConfigBoundary:
    """The model layer owns model input; only the CLI speaks ConfigError."""

    PACKAGE = Path(cli.__file__).resolve().parent

    def test_only_the_cli_raises_config_error(self):
        raisers, importers = set(), set()
        for path in sorted(self.PACKAGE.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    if getattr(exc, "id", getattr(exc, "attr", None)) == "ConfigError":
                        raisers.add(path.stem)
                if isinstance(node, ast.ImportFrom) and any(
                        alias.name == "ConfigError" for alias in node.names):
                    importers.add(path.stem)
                if isinstance(node, ast.Attribute) and node.attr == "ConfigError":
                    importers.add(path.stem)
        assert raisers == {"cli"}
        assert importers <= {"cli", "errors", "__init__"}

    def test_parser_takes_the_spec_only(self):
        assert list(inspect.signature(parse_ensemble_spec).parameters) == ["spec"]


class TestGapScanCap:
    def test_oversize_basis_refused_before_enumeration(self, tmp_path,
                                                        capsys, monkeypatch):
        # m = 16 at degree 10 is C(146, 10) ~ 1e15 indices: refused by count
        class NoEnumeration:
            def combinations_with_replacement(self, *args):
                raise AssertionError("basis enumerated before the size check")

        monkeypatch.setattr(lin, "itertools", NoEnumeration())
        out = tmp_path / "gap.csv"
        start = time.perf_counter()
        rc = main(["gap-scan", "--m", "16", "--E-grid", "0:0:1",
                   "--degree", "10", "--out", str(out)])
        assert time.perf_counter() - start < 0.1
        assert rc == 3
        assert "exceeds MAX_INDICES" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestCrosscheck:
    ARGS = ["crosscheck", "--K", "2", "--A", "diag:-0.5,0.5",
            "--lambda", "0.5", "--E-grid", "0.3:0.3:1", "--depth", "4",
            "--samples", "20", "--seed", "3"]

    def test_recursion_matches_dense_resolvent(self, tmp_path):
        out = tmp_path / "xc.json"
        rc = main(self.ARGS + ["--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert report["max_deviation"] < 1e-8
        assert report["cases"] == 20
        assert manifest_of(out)["outputs"][out.name]["sha256"] == sha(out)

    def test_workers_do_not_change_report(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(self.ARGS + ["--workers", "1", "--out", str(a)])
        main(self.ARGS + ["--workers", "4", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_workers_do_not_change_m3_report(self, tmp_path):
        # the bench model at depth 4: one task per energy, two energies
        args = ["crosscheck", "--K", "2", "--A", "diag:-0.5,0.0,0.4",
                "--lambda", "0.5", "--ensemble", "goe", "--depth", "4",
                "--eta-schedule", "0.05", "--E-grid=-0.8:0.7:2",
                "--samples", "20", "--seed", "5"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--workers", "1", "--out", str(a)]) == 0
        assert main(args + ["--workers", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text())["cases"] == 40

    def test_depth_zero_degenerate_pass(self, tmp_path):
        out = tmp_path / "xc.json"
        rc = main(["crosscheck", "--K", "2", "--m", "1", "--lambda", "1.0",
                   "--E-grid", "0:0:1", "--depth", "0", "--samples", "5",
                   "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["pass"] is True

    def test_corrupted_recursion_fails_with_exit_4(self, tmp_path, monkeypatch):
        original = cli.sample_tree_given

        def corrupted(sp, model, tree, potentials):
            return original(sp, model, tree, potentials) + 1e-6

        monkeypatch.setattr(cli, "sample_tree_given", corrupted)
        out = tmp_path / "xc.json"
        rc = main(self.ARGS + ["--out", str(out)])
        assert rc == 4
        report = json.loads(out.read_text())
        assert report["pass"] is False
        assert report["max_deviation"] >= 1e-6
        assert manifest_of(out)["outputs"][out.name]["sha256"] == sha(out)

    def test_mismatched_seeds_detected(self):
        # harness self-test: potentials drawn from a different master seed
        # must push the deviation far beyond the pass threshold
        model = BetheStripModel(K=2, a=(-0.5, 0.5), lam=0.5, ensemble=GOE())
        sp = SpectralPoint(0.3, 0.05)
        tree = build_tree(2, 3, 2)
        recursed = sample_tree(sp, model, depth=3, seed=1)
        dense = root_green_block(sp, model, tree,
                                 draw_site_potentials(model, tree, seed=2))
        assert np.max(np.abs(recursed - dense)) > 1e-8


class TestConfigPlumbing:
    def test_file_provides_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("K=2\nm=1\nE-grid=0:0:1\neta-schedule=0\n"
                       f"out={tmp_path / 'a.csv'}\n")
        assert main(["free-profile", "--config", str(cfg)]) == 0
        _, rows = csv_table(tmp_path / "a.csv")
        assert len(rows) == 1
        rc = main(["free-profile", "--config", str(cfg),
                   "--E-grid", "-1:1:3", "--out", str(tmp_path / "b.csv")])
        assert rc == 0
        _, rows = csv_table(tmp_path / "b.csv")
        assert len(rows) == 3

    def test_manifest_config_round_trips(self, tmp_path):
        # every criterion-9 config: rerunning the echo as a config file
        # reproduces every output byte for byte, and the same echo
        for sub, args in CLI_RUNS.items():
            out, again = tmp_path / f"{sub}-a.out", tmp_path / f"{sub}-b.out"
            assert main([sub, *args, "--seed", "4", "--out", str(out)]) == 0
            config = manifest_of(out)["config"]
            config["out"] = str(again)
            cfg = tmp_path / f"{sub}.cfg"
            cfg.write_text("".join(f"{key}={config[key]}\n"
                                   for key in cli._KEYS if key in config))
            assert main([sub, "--config", str(cfg)]) == 0, sub
            assert manifest_of(again)["config"] == config, sub
            outputs = sorted(p.name[len(out.name):]
                             for p in tmp_path.glob(f"{out.name}*"))
            assert len(outputs) >= 2, sub          # the output and its manifest
            for suffix in outputs:
                if suffix != ".manifest.json":
                    assert (Path(f"{again}{suffix}").read_bytes()
                            == Path(f"{out}{suffix}").read_bytes()), (sub, suffix)

    POOL_ECHO = {"eta-schedule", "pool", "sweeps", "burnin", "samples",
                 "chunking", "measure-sweeps"}
    ECHO_EXTRA = {
        "free-profile": {"eta-schedule"},
        "dos-scan": POOL_ECHO,
        "ac-indicator": POOL_ECHO,
        "gap-scan": {"degree"},
        "ce-spectrum": {"degree"},
        "crosscheck": {"eta-schedule", "depth", "samples"},
    }

    @pytest.mark.parametrize("sub", list(CLI_RUNS))
    def test_echo_key_set_per_subcommand(self, sub, tmp_path):
        # the goldens skip manifests, so the echoed key set is pinned here
        out = tmp_path / "a.out"
        assert main([sub, *CLI_RUNS[sub], "--out", str(out)]) == 0
        assert set(manifest_of(out)["config"]) == {
            "subcommand", "K", "m", "A", "lambda", "ensemble", "E-grid",
            "seed", "workers", "out", *self.ECHO_EXTRA[sub]}

    def test_shared_file_key_skipped_where_unread(self, tmp_path, capsys):
        # one file can serve several subcommands: a key that a subcommand
        # does not read is neither parsed, bounded nor echoed there
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("K=2\nm=1\nE-grid=0:0:1\npool=3\ndegree=-1\n")
        out = tmp_path / "fp.csv"
        assert main(["free-profile", "--config", str(cfg),
                     "--out", str(out)]) == 0
        assert not {"pool", "degree"} & set(manifest_of(out)["config"])
        assert main(["dos-scan", "--config", str(cfg), "--eta-schedule", "0.1",
                     "--out", str(tmp_path / "dos.csv")]) == 2
        assert "pool: must be >= 16" in capsys.readouterr().err

    def test_help_lists_only_keys_read(self, capsys):
        assert main(["free-profile", "--help"]) == 0
        text = capsys.readouterr().out
        assert "--E-grid" in text and "--eta-schedule" in text
        assert "--pool" not in text and "--degree" not in text

    def test_unknown_key_and_missing_file(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("K=2\nbogus=1\n")
        args = ["free-profile", "--E-grid", "0:0:1",
                "--out", str(tmp_path / "x.csv")]
        assert main(args + ["--config", str(bad)]) == 2
        assert main(args + ["--config", str(tmp_path / "nope.cfg")]) == 2

    def test_duplicate_file_key_refused(self, tmp_path, capsys):
        cfg = tmp_path / "dup.cfg"
        cfg.write_text("K=3\n# the width\nm=1\nK=2\n")
        rc = main(["free-profile", "--E-grid", "0:0:1", "--config", str(cfg),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert (f"{cfg}:4: duplicate key 'K' (first on line 1)"
                in capsys.readouterr().err)
        assert not (tmp_path / "x.csv").exists()

    def test_non_utf8_config_file(self, tmp_path, capsys):
        bad = tmp_path / "latin1.cfg"
        bad.write_bytes(b"K=2\n# caf\xe9\n")
        rc = main(["free-profile", "--E-grid", "0:0:1", "--config", str(bad),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert str(bad) in capsys.readouterr().err

    def test_byte_order_mark_config_file(self, tmp_path):
        # a UTF-8 file saved with a byte-order mark reads as the same keys
        text = b"K=2\nm=1\nE-grid=0:0:1\n"
        outputs = []
        for name, data in (("plain", text), ("bom", b"\xef\xbb\xbf" + text)):
            cfg, out = tmp_path / f"{name}.cfg", tmp_path / f"{name}.csv"
            cfg.write_bytes(data)
            assert main(["free-profile", "--config", str(cfg), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_point_ensemble_path_is_directory(self, tmp_path, capsys):
        folder = tmp_path / "v0"
        folder.mkdir()
        rc = main(["free-profile", "--E-grid", "0:0:1",
                   "--ensemble", f"point:{folder}",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert str(folder) in capsys.readouterr().err

    def test_out_directory_rejected_before_work(self, tmp_path, capsys,
                                                monkeypatch):
        def never(cfg):
            raise AssertionError("the subcommand ran")

        monkeypatch.setitem(cli._DISPATCH, "free-profile", never)
        rc = main(["free-profile", "--E-grid", "0:0:1",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert str(tmp_path) in capsys.readouterr().err

    @pytest.mark.parametrize("sub, side", [("free-profile", ".manifest.json"),
                                           ("ac-indicator", ".verdict.json")])
    def test_side_file_directory_rejected_before_work(self, tmp_path, capsys,
                                                      monkeypatch, sub, side):
        def never(cfg):
            raise AssertionError("the subcommand ran")

        monkeypatch.setitem(cli._DISPATCH, sub, never)
        out = tmp_path / "x.csv"
        Path(f"{out}{side}").mkdir()
        rc = main([sub, "--E-grid", "0:0:1", "--eta-schedule", "0.1,0.05,0.02",
                   "--out", str(out)])
        assert rc == 2
        assert f"{out}{side} is a directory" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sub, args", [
        ("free-profile", []),
        ("ac-indicator", ["--eta-schedule", "0.2,0.1,0.05", "--pool", "16",
                          "--sweeps", "1", "--burnin", "1", "--samples", "2"]),
        ("crosscheck", ["--depth", "1", "--samples", "2"]),
    ])
    def test_unwritable_out_is_config_error(self, tmp_path, capsys, monkeypatch,
                                            sub, args):
        def never(*_, **__):
            raise AssertionError("a solver ran")

        for solver in ("forward_roots", "eta_continuation", "sample_tree_given",
                       "root_green_block"):
            monkeypatch.setattr(cli, solver, never)
        # a regular file where an output directory should be, at the parent or
        # further up: nothing can be written below it, whatever the permissions
        blocker = tmp_path / "file"
        blocker.write_text("")
        for rel in ("x.out", "sub/dir/x.out"):
            rc = main([sub, "--E-grid", "0:0:1", *args,
                       "--out", str(blocker / rel)])
            err = capsys.readouterr().err
            assert rc == 2
            assert err.startswith(f"config error: out: cannot write {blocker}: ")
            assert err.count("\n") == 1 and "Traceback" not in err
            assert blocker.read_text() == ""

    def test_write_error_is_config_error(self, tmp_path, capsys, monkeypatch):
        # an error only the write itself finds (permissions, a full disk)
        def refuse(path, data):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(Path, "write_bytes", refuse)
        out = tmp_path / "x.csv"
        rc = main(["free-profile", "--E-grid", "0:0:1", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"config error: out: cannot write {out}: Permission denied\n"

    def test_width_from_diagonal_and_mismatch(self, tmp_path):
        out = tmp_path / "fp.csv"
        rc = main(["free-profile", "--A", "diag:-0.5,0.5",
                   "--E-grid", "0:0:1", "--eta-schedule", "0",
                   "--out", str(out)])
        assert rc == 0
        assert manifest_of(out)["config"]["m"] == 2
        rc = main(["free-profile", "--m", "3", "--A", "diag:-0.5,0.5",
                   "--E-grid", "0:0:1", "--out", str(tmp_path / "y.csv")])
        assert rc == 2

    @pytest.mark.parametrize("sub, key, value", [
        ("free-profile", "E-grid", f"0:1:{cli.MAX_GRID + 1}"),
        ("free-profile", "E-grid", "0:1:1000000000000000"),
        ("dos-scan", "pool", str(cli.MAX_ENTRIES // 4 + 1)),  # m = 2: 4 entries each
        ("dos-scan", "pool", "1000000000000000"),
        ("ac-indicator", "samples", str(cli.MAX_ENTRIES // (4 * recursion.MEASURE_SWEEPS) + 1)),
        ("crosscheck", "workers", str(recursion.CHUNKS + 1)),
        ("crosscheck", "samples", str(cli.MAX_ENTRIES + 1)),  # one energy
    ])
    def test_sizes_capped_before_work(self, sub, key, value, tmp_path, capsys,
                                      monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the subcommand or a thread pool started")

        monkeypatch.setitem(cli._DISPATCH, sub, never)
        monkeypatch.setattr(ThreadPoolExecutor, "__init__", never)
        flags = {"m": "2", "E-grid": "0:0:1", "eta-schedule": "0.1,0.05,0.02",
                 "out": str(tmp_path / "x.csv"), key: value}
        rc = main([sub, *(t for k, v in flags.items() for t in (f"--{k}", v))])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}: ")

    @pytest.mark.parametrize("sub, key, value, message", [
        ("free-profile", "config", "bad.cfg", "bad.cfg:2: expected key=value, got 'm 1'"),
        ("dos-scan", "pool", "1e4", "pool: expected an integer, got '1e4'"),
        ("dos-scan", "lambda", "x", "lambda: expected a number, got 'x'"),
        ("dos-scan", "lambda", "inf", "lambda: must be finite, got 'inf'"),
        ("free-profile", "E-grid", "0:1:1", "E-grid: a single-point grid needs lo = hi"),
        ("dos-scan", "eta-schedule", ",", "eta-schedule: empty list"),
        ("free-profile", "eta-schedule", "-0.1", "eta-schedule: levels must be >= 0"),
        ("dos-scan", "ensemble", "point:", "point: requires an inline matrix or a path"),
    ], ids=["config-line-without-equals", "pool-not-integer", "lambda-not-number",
            "lambda-inf", "grid-one-point-lo-below-hi", "eta-schedule-empty",
            "free-profile-eta-negative", "point-without-payload"])
    def test_malformed_value_named_before_work(self, sub, key, value, message,
                                               tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the subcommand started")

        monkeypatch.setitem(cli._DISPATCH, sub, never)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.cfg").write_text("K=2\nm 1\n")
        flags = {"E-grid": "0:0:1", "eta-schedule": "0.1", "out": "x.csv", key: value}
        rc = main([sub, *(t for k, v in flags.items() for t in (f"--{k}", v))])
        assert rc == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert list(tmp_path.glob("x.csv*")) == []

    def test_sizes_at_the_caps_accepted(self, tmp_path):
        argv = ["dos-scan", "--m", "2", "--E-grid", f"0:1:{cli.MAX_GRID}",
                "--eta-schedule", "0.1", "--pool", str(cli.MAX_ENTRIES // 4),
                "--samples", str(cli.MAX_ENTRIES // (4 * recursion.MEASURE_SWEEPS)),
                "--workers", str(recursion.CHUNKS), "--out", str(tmp_path / "x.csv")]
        cfg = cli._resolve_config(cli._build_parser(argv).parse_args(argv))
        assert len(cfg.e_values) == cli.MAX_GRID
        assert cfg.workers == recursion.CHUNKS

    def test_crosscheck_caps_deviations_not_root_draws(self, tmp_path):
        # one deviation per (E, realization): n * samples at the cap is
        # accepted, although 20 * samples * m^2 is far above it
        argv = ["crosscheck", "--m", "3", "--E-grid", "0:1:4",
                "--samples", str(cli.MAX_ENTRIES // 4), "--out", str(tmp_path / "x.json")]
        cfg = cli._resolve_config(cli._build_parser(argv).parse_args(argv))
        assert cfg.samples == cli.MAX_ENTRIES // 4
        argv[argv.index("--samples") + 1] = str(cli.MAX_ENTRIES // 4 + 1)
        with pytest.raises(cli.ConfigError, match="samples: "):
            cli._resolve_config(cli._build_parser(argv).parse_args(argv))

    def test_negative_flag_values_parse(self, tmp_path):
        out = tmp_path / "fp.csv"
        rc = main(["free-profile", "--K", "2", "--m", "1",
                   "--E-grid", "-0.5:-0.5:1",
                   "--eta-schedule", "0", "--out", str(out)])
        assert rc == 0
        assert manifest_of(out)["config"]["E-grid"] == "-0.5:-0.5:1"
        argv = ["dos-scan", "--lambda", "-0.3", "--E-grid", "0:0:1",
                "--eta-schedule", "0.1", "--out", str(tmp_path / "dos.csv")]
        cfg = cli._resolve_config(cli._build_parser(argv).parse_args(argv))
        assert cfg.echo["lambda"] == -0.3

    @pytest.mark.parametrize("sub", ["free-profile", "gap-scan", "ce-spectrum"])
    def test_zero_coupling_subcommands_refuse_lambda(self, sub, tmp_path, capsys,
                                                     monkeypatch):
        # they compute at lambda = 0: another value would be echoed, not used
        args = [sub, "--K", "2", "--A", "diag:-0.3,0.3", "--E-grid", "-0.5:0.5:3"]
        out = tmp_path / "x.out"
        with monkeypatch.context() as mp:
            def never(*_, **__):
                raise AssertionError("the subcommand started")

            mp.setitem(cli._DISPATCH, sub, never)
            assert main([*args, "--lambda", "0.3", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: lambda: {sub} computes at zero coupling, got 0.3\n")
        assert list(tmp_path.glob("x.out*")) == []
        assert main([*args, "--lambda", "0", "--out", str(out)]) == 0
        assert manifest_of(out)["config"]["lambda"] == 0.0

    def test_point_mass_ensemble_spec(self, tmp_path):
        out = tmp_path / "dos.csv"
        rc = main(["dos-scan", "--K", "2", "--m", "1", "--lambda", "0.4",
                   "--ensemble", "point:0.3", "--E-grid", "0:0:1",
                   "--eta-schedule", "0.1", "--pool", "64", "--sweeps", "2",
                   "--burnin", "4", "--samples", "16", "--out", str(out)])
        assert rc == 0
        assert manifest_of(out)["config"]["ensemble"].startswith("point:")

    @pytest.mark.parametrize("spec", [
        "point:inf", "point:[[1e308]]", "point:[[1, [2]]]",
        'file:{"a": 1}', 'file:[[1, "a"]]'],
        ids=["inf", "overflow", "ragged", "file-dict", "file-string"])
    def test_malformed_point_mass_is_config_error(self, spec, tmp_path,
                                                  capsys):
        # non-finite after symmetrization, ragged, or not numeric at all:
        # exit 2 with no traceback, no warning and nothing written
        if spec.startswith("file:"):
            path = tmp_path / "v0.json"
            path.write_text(spec[len("file:"):])
            spec = f"point:{path}"
        out = tmp_path / "dos.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["dos-scan", "--ensemble", spec, "--lambda", "0.1",
                       "--E-grid", "0:0:1", "--eta-schedule", "0.1",
                       "--pool", "64", "--burnin", "1", "--sweeps", "1",
                       "--samples", "4", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert list(tmp_path.glob("dos.csv*")) == []

    @pytest.mark.parametrize("m", ["0", "-3", "17", "1000000000000000"])
    def test_strip_width_is_the_models_rule(self, m, tmp_path, capsys):
        # the width bound lives in the model; a huge --m is refused there
        # without first allocating m diagonal entries
        rc = main(["free-profile", "--m", m, "--E-grid", "0:0:1",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "strip width must be 1..16" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,code", [
        (["free-profile", "--K", "1", "--E-grid", "0:0:1", "--out", "x"], 2),
        (["free-profile", "--E-grid", "0:0:1"], 2),               # no --out
        (["free-profile", "--E-grid", "1:0:5", "--out", "x"], 2), # lo > hi
        (["free-profile", "--E-grid", "0:1", "--out", "x"], 2),   # malformed
        (["free-profile", "--out", "x"], 2),                      # no grid
        (["free-profile", "--A", "diag:0.5,-0.5", "--E-grid", "0:0:1",
          "--out", "x"], 2),                                      # unsorted
        (["free-profile", "--A", "0.5", "--E-grid", "0:0:1",
          "--out", "x"], 2),                                      # bad form
        (["free-profile", "--ensemble", "diag:nope", "--E-grid", "0:0:1",
          "--out", "x"], 2),
        (["free-profile", "--E-grid", "0:0:1", "--out", "x", "--bogus"], 2),
        (["gap-scan", "--K", "2", "--E-grid", "0:0:1", "--seed", "-1",
          "--out", "x"], 2),
        # a flag of a key the subcommand does not read
        (["free-profile", "--E-grid", "0:0:1", "--out", "x", "--pool", "1000"], 2),
        (["gap-scan", "--E-grid", "0:0:1", "--out", "x", "--eta-schedule", "0.1"], 2),
        (["ce-spectrum", "--E-grid", "0:0:1", "--out", "x", "--depth", "4"], 2),
        (["crosscheck", "--E-grid", "0:0:1", "--out", "x", "--degree", "9"], 2),
    ])
    def test_config_exit_codes(self, argv, code, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == code

    def test_help_and_version_exit_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "free-profile" in capsys.readouterr().out
        assert main(["--version"]) == 0
        assert "0.3.0" in capsys.readouterr().out

    @pytest.mark.parametrize("module", ["bethestrip", "bethestrip.cli"])
    def test_python_m_entry_point(self, module):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        proc = subprocess.run([sys.executable, "-W", "default", "-m", module, "--help"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0
        assert "free-profile" in proc.stdout
        assert "RuntimeWarning" not in proc.stderr

    def test_import_skips_sparse_oracle(self):
        # scipy.sparse is the crosscheck oracle's and numpy.random the streams';
        # runs that need neither (continuation, ce-spectrum) should not load them
        src = str(Path(cli.__file__).resolve().parents[1])
        code = ("import sys, bethestrip.cli; "
                "print([m in sys.modules for m in ('scipy.sparse', 'numpy.random')])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[False, False]"
