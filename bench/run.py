"""bethestrip benchmark: four workloads timed end to end, every module traced.

Run from the repository root:

    python3 bench/run.py --workload dos_scan --seed 0 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``dos_scan``, ``crosscheck``,
``continuation`` and ``ce_spectrum``.  Each is a closed loop with one client:
one process, one thread, ``--workers 1`` and BLAS pinned to one thread.

The run pins itself to one CPU, where the speed reference of
``reference.py`` runs beside it, and starts one worker process
(``worker.py``) that runs units of the workload for about ``--seconds``,
checking each unit's output.  Between units the worker starts set-up probes:
fresh interpreters that only set up (import bethestrip, numpy and scipy;
build the workload).  The run prints a provenance line and, last, one JSON
object.  With ``--trace 0`` its metrics are the end-to-end ones:

- ``wall_s``: median time of one unit, from the first call into bethestrip
  to the last output written, as CPU seconds at the reference speed (the
  unit is single-threaded and CPU-bound, so alone on a machine of the
  reference speed this is its wall time);
- ``setup_s``: median time of the probes from a fresh interpreter to ready,
  likewise;
- ``peak_rss_mb``: the measuring process's own peak RSS.

``attempted`` and ``failed`` count units; their ratio is the error rate.
With ``--trace 1`` the run is not pinned and has no reference; its metrics
are the per-layer ones of ``tracing.py``, from the traced units, and the
spans are written to ``.bench_out/trace-<workload>.json``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run that has not finished by then is stopped and fails.
TIMEOUT_S = 150.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the harness at smoke-test sizes")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "bethestrip" / "__init__.py").is_file():
        print("bethestrip sources not found under src/", file=sys.stderr)
        return 2

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                                          if os.environ.get("PYTHONPATH") else [])))
    env.pop("BETHE_STRIP_THREADS", None)
    out_root = ROOT / ".bench_out"
    out_dir = out_root / f"run-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    worker = [sys.executable, str(HERE / "worker.py"),
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--trace", str(args.trace),
              "--size", args.size, "--out-dir", str(out_dir / "units")]
    deadline = time.monotonic() + TIMEOUT_S
    try:
        if args.trace:
            worker += ["--spans", str(out_root / f"trace-{args.workload}.json")]
            lines = _run(worker, env, deadline)
        else:
            # Children inherit the pin, so all share one CPU with the reference.
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            counter_path = out_dir / "reference.bin"
            worker += ["--reference", str(counter_path)]
            with reference.running(counter_path, env, deadline):
                lines = _run(worker, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark process failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    result = json.loads(lines[-1])

    units = result["units"]
    failed = sum(not u["ok"] for u in units)
    provenance = dict(result["provenance"], nproc=os.cpu_count(),
                      cpu=_cpu_model(), commit=_git_commit())
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "units": len(units), "work_per_unit": result["work"],
                      "error_rate": failed / len(units),
                      "provenance": provenance}))
    if args.trace:
        metrics = {m["name"]: {"value": result["layers"][m["name"]],
                               "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        timed = [u for u in units if u["cpu"] is not None]
        # A unit too short for the reference to progress uses the whole run's.
        pooled = [sum(u["ref"][k] for u in timed) for k in (0, 1)]
        walls = [reference.scaled(u["cpu"], u["ref"] if u["ref"][0] > 0 else pooled)
                 for u in timed]
        values = {
            "wall_s": statistics.median(walls) if walls else float("nan"),
            "setup_s": statistics.median(reference.scaled(cpu, progress)
                                         for cpu, progress in result["setup"]),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": failed == 0, "attempted": len(units),
                      "failed": failed, "metrics": metrics}))
    return 0


def _run(cmd, env, deadline):
    """Run ``cmd`` to the end and return its stdout lines.  Raises
    RuntimeError if it exits non-zero."""
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:4])} exited {proc.returncode}")
    return out.splitlines()


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit():
    """HEAD's commit when the checkout is a git work tree, else "unknown"."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
