"""Smoke run of the whole benchmark on tiny grids: every workload, traced and not.

Checks the plumbing, not the numbers: each workload passes its own
correctness checks, the traced run reproduces the untraced outputs bit
for bit, and the metric names emitted are exactly those declared in
``BENCHMARK.json``, in both directions.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, timeout):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--profile", "smoke", "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )


def test_smoke_suite_emits_exactly_the_declared_metrics(tmp_path):
    out = tmp_path / "smoke.json"
    t0 = time.monotonic()
    proc = _run("--trace", "--out", str(out), timeout=120)
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 90
    record = json.loads(out.read_text())
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert set(record["runs"]) == {w["name"] for w in SPEC["workloads"]}
    for workload, runs in record["runs"].items():
        (plain,) = runs
        (traced,) = record["traced"][workload]
        assert plain["correct"] and traced["correct"], (workload, plain["checks"], traced["checks"])
        assert set(plain["metrics"]) == e2e
        assert all(v is not None and v > 0 for v in plain["metrics"].values()), plain["metrics"]
        assert set(traced["layers"]) == per_layer
        assert all(isinstance(v, (int, float)) for v in traced["layers"].values())
    for name in ("wall_s", "setup_s", "trace.unattributed_s", "serve.r40.latency_tail_ms"):
        assert name in proc.stdout


def test_single_workload_prints_the_result_line():
    proc = _run("--workload", "insitu-sample", "--seed", "3", "--trace", "0", timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], float) and metric["value"] > 0
