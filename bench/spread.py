"""Run every workload on several seeds and report each metric's spread.

    python3 bench/spread.py [--record bench/baseline.json]

Every workload of BENCHMARK.json runs on seeds 1 to 10.  For each workload
and end-to-end metric it prints the median of the runs and
the distance between their first and third quartiles as a share of the
median (``statistics.quantiles(values, n=4)``), next to a third of the
metric's bound.  Each workload also gets one traced run.  ``--record`` writes
every run's result line, the provenance and the spreads to a JSON file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", help="write the runs and spreads to this JSON file")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            info, result = run(workload, seed, spec["run_seconds"], 0)
            record["provenance"] = info["provenance"]
            runs.append({"seed": seed, "result": result})
            print(workload, seed, json.dumps(result["metrics"]), flush=True)
        spreads = {}
        for name in bounds:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spreads[name] = {"median": median, "spread": (q3 - q1) / median,
                             "third_of_bound": bounds[name] / 3}
            print(f"{workload:14s} {name:12s} median {median:.4f} spread "
                  f"{(q3 - q1) / median:.4f} (a third of the bound: "
                  f"{bounds[name] / 3:.4f})", flush=True)
        _, traced = run(workload, SEEDS[0], spec["run_seconds"], 1)
        record["workloads"][workload] = {
            "runs": runs, "spreads": spreads, "traced": traced,
            "all_correct": all(r["result"]["correct"] for r in runs)
            and traced["correct"]}
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
