"""Tests of the benchmark harness itself: tracer, statistics, isolation, names.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import compare
import run
from stats import tail_percentile
from tracer import Tracer, union_seconds

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class Work:
    def outer(self, pause: float) -> None:
        time.sleep(pause)
        self.inner()
        self.inner()

    def inner(self) -> None:
        time.sleep(0.02)


@pytest.fixture
def traced_work():
    tracer = Tracer()
    tracer.wrap(Work, "outer", "work.outer")
    tracer.wrap(Work, "inner", "work.inner")
    yield tracer
    tracer.unwrap_all()


def test_self_time_excludes_nested_calls(traced_work):
    Work().outer(0.03)
    merged = traced_work.merged()
    assert merged["calls"] == {"work.outer": 1, "work.inner": 2}
    outer_total = merged["total"]["work.outer"]
    inner_total = merged["total"]["work.inner"]
    assert inner_total >= 0.04
    assert merged["self_s"]["work.outer"] == pytest.approx(outer_total - inner_total, abs=1e-9)
    assert merged["self_s"]["work.inner"] == pytest.approx(inner_total, abs=1e-9)
    # Only the outer call is top level, so only it leaves a span.
    assert len(traced_work.spans()) == 1


def test_unwrap_restores_the_original(traced_work):
    traced_work.unwrap_all()
    Work().outer(0.0)
    assert traced_work.merged()["calls"] == {}


def test_tables_merge_across_threads(traced_work):
    def worker():
        for _ in range(3):
            Work().inner()

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert len(traced_work._threads) == 2
    assert traced_work.merged()["calls"] == {"work.inner": 6}
    assert len(traced_work.spans()) == 6


def _child_calls_traced_work():
    for _ in range(5):
        Work().inner()


def test_child_forked_after_wrapping_finishes(traced_work):
    stop = threading.Event()

    def busy():
        while not stop.is_set():
            Work().inner()

    thread = threading.Thread(target=busy)
    thread.start()
    try:
        time.sleep(0.05)  # fork while the other thread is inside wrapped calls
        child = multiprocessing.get_context("fork").Process(target=_child_calls_traced_work)
        child.start()
        child.join(timeout=30)
        alive = child.is_alive()
        if alive:
            child.kill()
            child.join()
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not alive
    assert child.exitcode == 0


def test_union_of_overlapping_spans():
    spans = [(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (-1.0, 0.5)]
    assert union_seconds(spans, 0.0, 10.0) == pytest.approx(4.0)
    assert union_seconds(spans, 1.5, 5.5) == pytest.approx(2.0)
    assert union_seconds([], 0.0, 1.0) == 0.0


@pytest.mark.parametrize(
    "n, pct",
    [(1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0), (100, 90.0), (40, 75.0), (20, 50.0), (19, None)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    got, value = tail_percentile(range(n))
    assert got == pct
    if pct is not None:
        assert n * (100 - pct) / 100 >= 10
        assert value == pytest.approx(float(np.percentile(range(n), pct)))


@pytest.mark.parametrize(
    "name, better, a, b, expected",
    [
        # SNR at one seed repeats exactly: 0.02 dB lost is a regression even
        # though it is far inside BENCHMARK.json's 8 %.
        ("snr_mean_db", "higher", [25.0] * 5, [24.98] * 5, "regressed"),
        ("snr_mean_db", "higher", [25.0] * 5, [24.995] * 5, "unchanged"),
        # A 40 ms set-up may grow by up to 0.5 s ...
        ("setup_s", "lower", [0.04, 0.05, 0.03, 0.04, 0.045], [0.4] * 5, "unchanged"),
        ("setup_s", "lower", [0.04, 0.05, 0.03, 0.04, 0.045], [0.6] * 5, "regressed"),
        # ... a 14 s one by 25 %.
        ("setup_s", "lower", [14.0, 14.2, 13.9, 14.1, 14.0], [17.0] * 5, "unchanged"),
        ("setup_s", "lower", [14.0, 14.2, 13.9, 14.1, 14.0], [18.0] * 5, "regressed"),
        ("wall_s", "lower", [10.0, 10.1, 9.9, 10.0, 10.2], [13.0] * 5, "regressed"),
        ("wall_s", "lower", [10.0, 10.1, 9.9, 10.0, 10.2], [9.0, 9.1, 8.9, 9.0, 9.2], "improved"),
        ("wall_s", "lower", [10.0, 14.0, 8.0, 10.0, 12.0], [9.0, 14.5, 7.5, 10.5, 11.0], "unresolved"),
    ],
)
def test_compare_verdicts(name, better, a, b, expected):
    bound = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}[name]
    assert compare.verdict(a, b, better, name, bound) == expected


def test_declared_names_are_well_formed():
    groups = {key: [m["name"] for m in SPEC[key]] for key in ("workloads", "end_to_end", "per_layer")}
    for key, names in groups.items():
        assert len(names) == len(set(names)), key
        for name in names:
            assert NAME.match(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", metric["unit"]), metric
    assert set(groups["workloads"]) == set(run.WORKLOADS)
    assert {"setup_s", "wall_s"} <= set(groups["end_to_end"])
    assert len(groups["per_layer"]) <= 128


def _stub_command(role, workload, args, workdir, result):
    """A stub workload process: ``stub-sleep`` hangs, ``stub-ok`` reports."""
    if workload == "stub-sleep":
        return [sys.executable, "-c", "import time; time.sleep(60)"]
    record = {"workload": workload, "metrics": {"wall_s": 1.0}, "correct": True,
              "attempted": 1, "failed": 0, "failed_frac": 0.0, "checks": {}, "digests": {}}
    code = f"import json, pathlib; pathlib.Path({str(result)!r}).write_text({json.dumps(record)!r})"
    return [sys.executable, "-c", code]


def test_timeout_records_failure_and_the_suite_continues(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORKLOADS", {"stub-sleep": (False, 0.1), "stub-ok": (False, 0.1)})
    monkeypatch.setattr(run, "child_command", _stub_command)
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    spec = {
        "workloads": [{"name": "stub-sleep"}, {"name": "stub-ok"}],
        "end_to_end": [{"name": "wall_s", "unit": "s"}],
        "per_layer": [],
    }
    out = tmp_path / "record.json"
    args = argparse.Namespace(seed=0, seconds=0.1, trace=0, profile="smoke", repeats=1,
                              out=str(out))
    t0 = time.monotonic()
    assert run.suite_main(args, spec) == 1
    assert time.monotonic() - t0 < 20
    runs = json.loads(out.read_text())["runs"]
    hung = runs["stub-sleep"][0]
    assert "timed out" in hung["error"]
    assert hung["failed_frac"] == 1.0 and hung["metrics"] == {"wall_s": None}
    assert runs["stub-ok"][0]["correct"] is True


def test_crash_records_failure(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    result = tmp_path / "result.json"
    out = run.run_isolated([sys.executable, "-c", "raise SystemExit(3)"], 10.0, result)
    assert out == {"error": "exited with status 3"}


def test_fails_without_the_library(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero, printing no result."""
    (tmp_path / "benchmarks").mkdir()
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parents[1] / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "campaign-batched",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
