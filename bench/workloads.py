"""The four benchmark workloads: inputs drawn from a seed, one unit of work,
and an output check against a reference independent of the code under test.

Every unit enters bethestrip through a public entry point: ``cli.main`` for
the three CLI workloads and ``fixedpoint.continuation_to_boundary`` for the
library loop.  Entry points are looked up on their module at call time, so
the tracer's wrappers, installed on the modules, are the ones that run.
"""

import contextlib
import csv
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

from bethestrip import cli, fixedpoint
from bethestrip.model import BetheStripModel, PointMass

HERE = Path(__file__).resolve().parent

# dos_scan: the population sweep.  One energy per unit, cycling through a
# fixed grid across the band so that the reference table covers every unit.
DOS_MODEL_ARGS = ["--K", "2", "--A", "diag:-0.5,0.5", "--lambda", "0.1",
                  "--ensemble", "goe"]
DOS_ENERGIES = (-1.6, -1.2, -0.8, -0.4, 0.0, 0.4, 0.8, 1.2, 1.6)
DOS_ETAS = "0.1,0.05"
# CLI defaults: burn-in 100 sweeps, relax 50, and 20 measured per eta level.
DOS_SWEEPS = 100 + 20 + 50 + 20
# |dos - reference| may reach this many combined standard errors, and
# dos_stderr must lie within this factor of the recorded benchmark-size one.
DOS_SIGMAS = 6.0
DOS_STDERR_FACTOR = 3.0

# continuation: criterion 8's point mass, 28 eta steps per energy.
CONT_V0 = ((0.3, 0.1), (0.1, -0.2))
CONT_ETAS = tuple(0.5 ** k for k in range(27)) + (0.0,)

# The tiny size keeps the full pool: the dos_scan check's tolerance is the
# standard error recorded at that pool.  A continuation unit is 40 energies,
# so that a run holds a dozen units and their median steadies: with 200 a
# unit, two or three units per run left a 10% spread across seeds.
SIZES = {
    "full": {"pool": 10_000, "depth": 6, "realizations": 20,
             "energies": 40, "degree": 5, "ce_energies": 10},
    "tiny": {"pool": 10_000, "depth": 3, "realizations": 2,
             "energies": 5, "degree": 2, "ce_energies": 2},
}


class CheckError(Exception):
    """A unit's output failed its check."""


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _rng(seed, *key):
    return np.random.default_rng((int(seed),) + tuple(int(k) for k in key))


def dos_tolerance(ref):
    """One combined standard error of a benchmark-size dos against ``ref``,
    a row of the reference table: both errors as recorded there."""
    return math.hypot(ref["bench_stderr"], ref["dos_stderr"])


def _key(E, eta):
    return round(E, 9), round(eta, 9)


def _cli_seed(seed, unit):
    return int(_rng(seed, unit, 1).integers(0, 2**31))


class Workload:
    """One workload: ``run(unit)`` is timed, ``check(result)`` is not."""

    name = ""
    #: parameters the per-layer metrics divide by
    per_call = {}

    def __init__(self, seed, size, out_dir):
        self.seed = int(seed)
        self.size = SIZES[size]
        self.out_dir = Path(out_dir)

    def run(self, unit):
        raise NotImplementedError

    def check(self, result):
        """Raise CheckError on a wrong output; return ``{"work": units of work}``."""
        raise NotImplementedError

    def _cli(self, argv, unit, suffix):
        """Run ``bethestrip <argv>`` in process; returns the output path."""
        out = self.out_dir / f"unit{unit}.{suffix}"
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = cli.main(argv + ["--out", str(out)])
        if code != 0:
            raise CheckError(f"bethestrip {argv[0]} exited {code}")
        return out

    def cleanup(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)


class DosScan(Workload):
    name = "dos_scan"

    def __init__(self, seed, size, out_dir):
        super().__init__(seed, size, out_dir)
        self.offset = int(_rng(self.seed).integers(len(DOS_ENERGIES)))
        table = json.loads((HERE / "reference_dos.json").read_text())
        self.reference = {_key(r["E"], r["eta"]): r for r in table["rows"]}
        self.per_call = {"pool": self.size["pool"]}

    def run(self, unit):
        E = DOS_ENERGIES[(self.offset + unit) % len(DOS_ENERGIES)]
        argv = (["dos-scan"] + DOS_MODEL_ARGS
                + [f"--E-grid={E!r}:{E!r}:1", f"--eta-schedule={DOS_ETAS}",
                   "--pool", str(self.size["pool"]),
                   "--seed", str(_cli_seed(self.seed, unit)), "--workers", "1"])
        return self._cli(argv, unit, "csv")

    def check(self, out):
        rows = read_csv(out)
        etas = [float(x) for x in DOS_ETAS.split(",")]
        if [float(r["eta"]) for r in rows] != etas:
            raise CheckError(f"dos_scan: expected one row per eta, got {len(rows)}")
        for r in rows:
            E, eta = float(r["E"]), float(r["eta"])
            dos, se = float(r["dos"]), float(r["dos_stderr"])
            etrg2 = float(r["ETrG2"])
            if not all(math.isfinite(float(v)) for v in r.values()):
                raise CheckError(f"dos_scan: non-finite row at E={E}, eta={eta}")
            if dos < 0.0 or etrg2 <= 0.0:
                raise CheckError(f"dos_scan: dos {dos} or ETrG2 {etrg2} out of range")
            ref = self.reference[_key(E, eta)]
            if not (1 / DOS_STDERR_FACTOR <= se / ref["bench_stderr"]
                    <= DOS_STDERR_FACTOR):
                raise CheckError(
                    f"dos_scan: dos_stderr {se:.3e} at E={E}, eta={eta} is not "
                    f"within {DOS_STDERR_FACTOR:g}x of {ref['bench_stderr']:.3e}")
            sigma = dos_tolerance(ref)
            if abs(dos - ref["dos"]) > DOS_SIGMAS * sigma:
                raise CheckError(
                    f"dos_scan: dos {dos:.6f} at E={E}, eta={eta} is "
                    f"{abs(dos - ref['dos']) / sigma:.1f} sigma from the "
                    f"reference {ref['dos']:.6f}")
        return {"work": self.size["pool"] * DOS_SWEEPS}


class Crosscheck(Workload):
    name = "crosscheck"

    def __init__(self, seed, size, out_dir):
        super().__init__(seed, size, out_dir)
        K, depth = 2, self.size["depth"]
        self.sites = 1 + (K + 1) * (K ** depth - 1) // (K - 1)
        self.per_call = {"sites": self.sites}

    def run(self, unit):
        lo, hi = map(float, _rng(self.seed, unit, 2).uniform((-1.0, 0.5),
                                                            (-0.5, 1.0)))
        argv = ["crosscheck", "--K", "2", "--A", "diag:-0.5,0.0,0.4",
                "--lambda", "0.5", "--ensemble", "goe",
                "--depth", str(self.size["depth"]), "--eta-schedule", "0.05",
                f"--E-grid={lo!r}:{hi!r}:2",
                "--samples", str(self.size["realizations"]),
                "--seed", str(_cli_seed(self.seed, unit)), "--workers", "1"]
        return self._cli(argv, unit, "json")

    def check(self, out):
        report = json.loads(Path(out).read_text())
        cases = 2 * self.size["realizations"]
        if report["cases"] != cases:
            raise CheckError(f"crosscheck: {report['cases']} cases, expected {cases}")
        if report["pass"] is not True:
            raise CheckError(
                f"crosscheck: max deviation {report['max_deviation']:.3e} from "
                "the sparse-LU oracle")
        return {"work": cases * self.sites}


class Continuation(Workload):
    name = "continuation"

    def __init__(self, seed, size, out_dir):
        super().__init__(seed, size, out_dir)
        self.model = BetheStripModel(K=2, a=(-0.5, 0.5), lam=0.7,
                                     ensemble=PointMass(np.array(CONT_V0)))
        self.onsite = np.diag(self.model.a) + self.model.lam * np.array(CONT_V0)

    def run(self, unit):
        energies = _rng(self.seed, unit, 3).uniform(
            -2.5, 2.5, self.size["energies"])
        return [(float(E), fixedpoint.continuation_to_boundary(
            self.model, float(E))) for E in energies]

    def check(self, result):
        quarter_k = 0.25 * self.model.K
        eye = np.eye(self.model.m)
        iterations = 0
        for E, reports in result:
            if len(reports) != len(CONT_ETAS):
                raise CheckError(f"continuation: {len(reports)} steps at E={E}")
            for eta, rep in zip(CONT_ETAS, reports):
                G = np.asarray(rep.solution)
                mapped = np.linalg.inv(self.onsite - complex(E, eta) * eye
                                       - quarter_k * G)
                residual = float(np.max(np.abs(G - mapped)))
                if not residual <= 1e-9:
                    raise CheckError(f"continuation: residual {residual:.2e} "
                                     f"at E={E}, eta={eta}")
                if eta > 0.0:
                    im = 0.5 * (G.imag + G.imag.T)
                    if np.linalg.eigvalsh(im)[0] < -1e-10:
                        raise CheckError(f"continuation: Im G not PSD at "
                                         f"E={E}, eta={eta}")
                iterations += rep.iterations
        return {"work": len(result),
                "iterations_per_energy": iterations / len(result)}


class CeSpectrum(Workload):
    name = "ce_spectrum"

    def __init__(self, seed, size, out_dir):
        super().__init__(seed, size, out_dir)
        self.basis = math.comb(self.size["degree"] + 3, 3)
        self.per_call = {"columns": self.basis}

    def run(self, unit):
        jitter = _rng(self.seed, unit, 4).uniform(-0.1, 0.1, 2)
        lo, hi = -0.9 + float(jitter[0]), 0.9 + float(jitter[1])
        argv = ["ce-spectrum", "--K", "2", "--A", "diag:-0.3,0.3",
                "--lambda", "0", "--degree", str(self.size["degree"]),
                f"--E-grid={lo!r}:{hi!r}:{self.size['ce_energies']}"]
        return self._cli(argv, unit, "csv")

    def check(self, out):
        rows = read_csv(out)
        expected = self.basis * self.size["ce_energies"]
        if len(rows) != expected:
            raise CheckError(f"ce_spectrum: {len(rows)} rows, expected {expected}")
        for r in rows:
            k_power = 2.0 ** -sum(int(p) for p in r["J"].split(":"))
            if not abs(float(r["modulus"]) - k_power) <= 1e-12:
                raise CheckError(f"ce_spectrum: |lambda_J| {r['modulus']} != "
                                 f"2^-|J| for J={r['J']} at E={r['E']}")
            if not float(r["tri_residual"]) <= 1e-10:
                raise CheckError(f"ce_spectrum: triangularity residual "
                                 f"{r['tri_residual']} at E={r['E']}")
        return {"work": len(rows)}


WORKLOADS = {w.name: w for w in (DosScan, Crosscheck, Continuation, CeSpectrum)}
