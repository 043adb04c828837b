"""One benchmark process: set up a workload, then run and check its units.

Started by ``run.py`` in a fresh interpreter with BLAS pinned to one thread.
It imports bethestrip, numpy and scipy and builds the workload.  With
``--setup-only`` it then prints ``ready <CPU seconds>`` and exits: that is a
set-up probe.  Otherwise it runs units for about ``--seconds`` and prints one
JSON line with the unit times, checks and (when traced) the per-layer
metrics.  With ``--reference`` each unit also records its CPU time and the
speed reference's progress over it (see ``reference.py``), and
``SETUP_PROBES`` set-up probes run at even steps of the units' time, each
recorded likewise.  With ``--trace 1`` units alternate untraced and traced
in the same process, so tracing overhead is measured on like units.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
# Seconds a set-up probe may take to exit once it has printed ``ready``.
PROBE_TIMEOUT_S = 30.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--spans", help="path the traced run's spans go to")
    parser.add_argument("--reference", help="counter file of the speed reference")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size, out_dir)
    if args.setup_only:
        print(f"ready {time.process_time()!r}", flush=True)
        return 0
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer(f"{args.workload}-{args.seed}") if args.trace else None
    counter = reference.Counter(args.reference) if args.reference else None
    probes = SETUP_PROBES if counter else 0
    units, setup = [], []
    try:
        run_span = tracer.open(tracing.RUN) if tracer else None
        busy = 0.0  # seconds spent in units, not in probes
        # Stop before a unit of median length would overrun --seconds.
        while (len(units) < (2 if tracer else 1)
               or busy + np.median([u["elapsed"] for u in units]) <= args.seconds):
            while len(setup) < min(probes, 1 + probes * busy / args.seconds):
                setup.append(_probe(counter))
            units.append(_unit(workload, len(units),
                               tracer if len(units) % 2 == 1 else None,
                               counter))
            busy += units[-1]["elapsed"]
        while len(setup) < probes:
            setup.append(_probe(counter))
        if tracer:
            tracer.close(run_span)
    finally:
        workload.cleanup()
        if counter:
            counter.close()

    result = {
        "units": [{k: u[k] for k in ("wall", "cpu", "ref", "ok", "traced")}
                  for u in units],
        "setup": setup,
        "work": max((u["work"] for u in units if u["ok"]), default=0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": {"python": sys.version.split()[0], "numpy": np.__version__,
                       "scipy": scipy.__version__, "blas": _blas_name()},
    }
    if tracer:
        result["layers"] = _layers(tracer, workload, units)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result), flush=True)
    return 0


def _unit(workload, index, tracer, counter):
    """Run, time and check one unit; a raise or a failed check fails it.

    ``wall`` and ``cpu`` are the unit's wall and CPU seconds; ``ref`` is the
    reference's (operations, CPU seconds) over the same interval.
    """
    unit = {"traced": tracer is not None, "ok": False, "wall": None,
            "cpu": None, "ref": None, "work": 0, "elapsed": 0.0}
    t0 = time.perf_counter()
    try:
        if tracer:
            tracer.install()
            sid = tracer.open(tracing.UNIT)
        before = counter.read() if counter else None
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            result = workload.run(index)
            unit["cpu"] = time.process_time() - c0
            unit["wall"] = time.perf_counter() - w0
        finally:
            if tracer:
                tracer.close(sid)
                tracer.uninstall()
        if counter:
            unit["ref"] = [b - a for a, b in zip(before, counter.read())]
        unit.update(workload.check(result))
        unit["ok"] = True
    except Exception:
        print(f"unit {index} of {workload.name} failed:", file=sys.stderr)
        traceback.print_exc()
    unit["elapsed"] = time.perf_counter() - t0
    return unit


def _probe(counter):
    """Time one set-up in a fresh interpreter: its CPU seconds to ready, and
    the reference's (operations, CPU seconds) meanwhile.  Runs while this
    process waits, so the two share the pinned CPU only with the reference."""
    cmd = [sys.executable, __file__] + sys.argv[1:] + ["--setup-only"]
    before = counter.read()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline().split()
        after = counter.read()
        proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or len(first) != 2 or first[0] != "ready":
        raise RuntimeError(f"set-up probe exited {proc.returncode}")
    return [float(first[1]), [b - a for a, b in zip(before, after)]]


def _layers(tracer, workload, units):
    walls = {flag: [u["wall"] for u in units if u["ok"] and u["traced"] == flag]
             for flag in (False, True)}
    extra = {f"{m}.errors": float(sum(n for name, n in tracer.errors.items()
                                      if name.startswith(m + ".")))
             for m in tracing.MODULES}
    extra["trace.overhead_s"] = (float(np.median(walls[True]) - np.median(walls[False]))
                                 if walls[True] and walls[False] else 0.0)
    extra["work.per_unit"] = float(max(u["work"] for u in units))
    extra["fixedpoint.iterations_per_energy"] = float(np.median(
        [u.get("iterations_per_energy", 0.0) for u in units if u["traced"]]))
    return tracing.layer_metrics(tracer.unit_stats(), workload.per_call, extra)


def _blas_name():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
