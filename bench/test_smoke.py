"""Smoke test of the benchmark harness at tiny sizes; asserts no timings.

    python3 -m pytest -q bench/test_smoke.py

Each workload runs once untraced on seed 0 and once traced on seed 1.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402


def _run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_layer_table_matches_spec():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _) in tracing.LAYER_METRICS.items()]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run(workload):
    result = _run(workload, seed=0, trace=0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run(workload):
    result = _run(workload, seed=1, trace=1)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    trace = json.loads((ROOT / ".bench_out" / f"trace-{workload}.json").read_text())
    parent = trace["columns"].index("parent")
    roots = [s for s in trace["spans"] if s[parent] == -1]
    assert len(roots) == 1
    assert trace["names"][roots[0][0]] == tracing.RUN
