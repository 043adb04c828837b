"""Record the high-statistics DOS reference table used by the dos_scan check.

Run once from the repository root:

    python3 bench/make_reference.py

It runs ``bethestrip dos-scan`` on the benchmark's energy grid with a pool ten
times larger and twenty times more root draws than the benchmark uses, on a
seed the benchmark never draws.  It then runs the scan ``STDERR_RUNS`` times
at the benchmark's own size, on further such seeds, and records the median
``dos_stderr`` of each row as ``bench_stderr``: the check's tolerance, fixed
here so that it does not come from the program under test.  It writes
``bench/reference_dos.json`` and prints, for the benchmark-size runs, the
largest distance from the reference in units of the tolerance and the range
of ``dos_stderr`` over ``bench_stderr``.
"""

import json
import os
import statistics
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from bethestrip import cli  # noqa: E402

REFERENCE_SEED = 20110121
POOL = 100_000
SAMPLES = 10_000
STDERR_RUNS = 9
WORKERS = 2


def scan(tmp, seed, extra):
    """Rows of ``bethestrip dos-scan`` on the benchmark's grid, and its argv."""
    energies = workloads.DOS_ENERGIES
    out = Path(tmp) / f"scan-{seed}.csv"
    argv = (["dos-scan"] + workloads.DOS_MODEL_ARGS
            + [f"--E-grid={energies[0]!r}:{energies[-1]!r}:{len(energies)}",
               f"--eta-schedule={workloads.DOS_ETAS}"] + extra
            + ["--seed", str(seed), "--workers", str(WORKERS), "--out", str(out)])
    if cli.main(argv) != 0:
        raise SystemExit(f"bethestrip {' '.join(argv)} failed")
    return workloads.read_csv(out), argv[:-2]


def main() -> int:
    pool = str(workloads.SIZES["full"]["pool"])
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        rows, argv = scan(tmp, REFERENCE_SEED,
                          ["--pool", str(POOL), "--samples", str(SAMPLES)])
        runs = [scan(tmp, REFERENCE_SEED + k, ["--pool", pool])[0]
                for k in range(1, STDERR_RUNS + 1)]
    table = {
        "note": ("bethestrip dos-scan reference, seed-independent for the "
                 "benchmark: generated once by bench/make_reference.py; "
                 f"bench_stderr is the median dos_stderr of {STDERR_RUNS} "
                 f"runs at pool {pool}"),
        "argv": argv,
        "rows": [{"E": float(r["E"]), "eta": float(r["eta"]),
                  "dos": float(r["dos"]), "dos_stderr": float(r["dos_stderr"]),
                  "bench_stderr": statistics.median(float(run[i]["dos_stderr"])
                                                    for run in runs)}
                 for i, r in enumerate(rows)],
    }
    (HERE / "reference_dos.json").write_text(json.dumps(table, indent=1) + "\n")
    z, ratio = [], []
    for run in runs:
        for ref, r in zip(table["rows"], run):
            sigma = workloads.dos_tolerance(ref)
            z.append(abs(float(r["dos"]) - ref["dos"]) / sigma)
            ratio.append(float(r["dos_stderr"]) / ref["bench_stderr"])
    print(f"{len(z)} benchmark-size rows: max |dos - reference| {max(z):.2f} "
          f"tolerances; dos_stderr / bench_stderr in [{min(ratio):.2f}, "
          f"{max(ratio):.2f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
