#!/usr/bin/env python3
"""End-to-end benchmark of the reconstruction workflow, traced layer by layer.

Run every workload (each in a fresh process), check its outputs and print
every end-to-end metric with its unit::

    python benchmarks/e2e/run.py --seed 0
    python benchmarks/e2e/run.py --seed 0 --trace --out e2e.json   # + per-layer table
    python benchmarks/e2e/run.py --repeats 5 --out A.json          # input for compare.py

Run one workload and print one JSON result as the last line of stdout::

    python benchmarks/e2e/run.py --workload campaign-batched --seed 3 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs under the outside-in tracer and reports its per-layer
metrics.  The library is imported from the checkout's ``src/``; without
it the command exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".e2e_work"

#: name -> (has a set-up subprocess, seconds allowed beyond ``--seconds``).
#: A workload process is killed after 3 x (``--seconds`` + allowance).
WORKLOADS = {
    "campaign-batched": (False, 25.0),
    "campaign-rolling": (False, 25.0),
    "insitu-sample": (False, 15.0),
    "serve-zipf": (True, 15.0),
}
#: Budget of the serve workload's registry-building subprocess.
PREPARE_BUDGET_S = 25.0
#: A single-workload invocation gives up on its subprocesses after this
#: long, so it always exits within three minutes.
SINGLE_RUN_DEADLINE_S = 170.0


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# --------------------------------------------------------------------------
# subprocesses


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def child_command(role: str, workload: str, args, workdir: Path, result: Path) -> list[str]:
    return [
        sys.executable, str(HERE / "run.py"), role, workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(int(args.trace)), "--profile", args.profile,
        "--workdir", str(workdir), "--result", str(result),
    ]


def _stop_group(proc: subprocess.Popen, grace: float) -> None:
    """Wait up to ``grace`` seconds for ``proc``'s process group to empty,
    then kill what is left of it and wait for that."""
    deadline = time.monotonic() + grace
    killed = False
    while True:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        if time.monotonic() >= deadline:
            if killed:
                return
            os.killpg(proc.pid, signal.SIGKILL)
            killed, deadline = True, time.monotonic() + 10.0
        time.sleep(0.05)


def run_isolated(command: list[str], timeout: float, result: Path) -> dict:
    """Run one process in its own group; its JSON result, or a failure record.

    A crash, a non-zero exit or running past ``timeout`` seconds returns
    ``{"error": ...}``; the process group is killed and reaped either way.
    """
    result.unlink(missing_ok=True)
    proc = subprocess.Popen(
        command, env=_env(), stdout=sys.stderr, start_new_session=True, cwd=ROOT
    )
    try:
        code = proc.wait(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        _stop_group(proc, grace=0.0)
        return {"error": f"timed out after {timeout:.0f} s"}
    _stop_group(proc, grace=5.0)
    if code != 0 or not result.is_file():
        return {"error": f"exited with status {code}"}
    return json.loads(result.read_text())


def failure_record(workload: str, trace: bool, spec: dict, error: str) -> dict:
    """A run that crashed or timed out: everything failed, every metric null."""
    record = {
        "workload": workload, "trace": bool(trace), "error": error, "correct": False,
        "attempted": 1, "failed": 1, "failed_frac": 1.0, "checks": {}, "digests": {},
        "metrics": {m["name"]: None for m in spec["end_to_end"]},
    }
    if trace:
        record["layers"] = {m["name"]: None for m in spec["per_layer"]}
    return record


def measure(workload: str, args, spec: dict, deadline: float | None = None) -> dict:
    """One workload run: set-up subprocess if any, then the workload process."""
    has_prepare, allowance = WORKLOADS[workload]

    def timeout(budget: float) -> float:
        limit = 3.0 * budget
        return limit if deadline is None else min(limit, deadline - time.monotonic())

    WORK.mkdir(parents=True, exist_ok=True)
    workdir = WORK / f"{os.getpid()}-{workload}-{int(args.trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if has_prepare:
            prep = run_isolated(
                child_command("--prepare", workload, args, workdir, workdir / "prepare.json"),
                timeout(PREPARE_BUDGET_S), workdir / "prepare.json",
            )
            if "error" in prep:
                return failure_record(workload, args.trace, spec, "set-up " + prep["error"])
        record = run_isolated(
            child_command("--child", workload, args, workdir, workdir / "result.json"),
            timeout(args.seconds + allowance), workdir / "result.json",
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if "error" in record:
        return failure_record(workload, args.trace, spec, record["error"])
    return record


# --------------------------------------------------------------------------
# inside the workload process


def _import_library():
    """Import the workloads (and with them the library, found through the
    ``PYTHONPATH`` the parent set); returns them and the import seconds."""
    t0 = time.perf_counter()
    import repro
    import workloads

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported repro from {repro.__file__}, not from {SRC}")
    return workloads, time.perf_counter() - t0


def prepare_main(args) -> int:
    workloads, _ = _import_library()
    _, prepare = workloads.WORKLOADS[args.workload]
    out = prepare(workloads.PROFILES[args.profile], Path(args.workdir))
    Path(args.result).write_text(json.dumps(out))
    return 0


def child_main(args) -> int:
    import resource

    workloads, import_s = _import_library()
    import layers
    from tracer import Tracer, calibrate_overhead

    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.install(tracer)
    run, _ = workloads.WORKLOADS[args.workload]
    ctx = workloads.Context(
        seed=args.seed, seconds=args.seconds, profile=workloads.PROFILES[args.profile],
        workdir=Path(args.workdir), tracer=tracer,
    )
    out = run(ctx)
    record = {
        "workload": args.workload, "trace": bool(args.trace), "seed": args.seed,
        "metrics": out["metrics"], "attempted": int(out["attempted"]),
        "failed": int(out["failed"]), "failed_frac": out["failed"] / max(1, out["attempted"]),
        "checks": out["checks"], "correct": all(out["checks"].values()),
        "digests": out["digests"], "walls": out["walls"],
        "info": {**out["info"], "import_s": import_s},
    }
    if tracer is not None:
        units = out["units"]
        walls = sum(end - start for start, end in out["windows"])
        unattributed = sum(tracer.unattributed(a, b) for a, b in out["windows"])
        calls = sum(ctx.after["calls"].values()) - sum(ctx.before["calls"].values())
        per_layer = dict.fromkeys(workloads.serve_layer_names(ctx.profile), 0.0)
        per_layer.update(layers.layer_metrics(layers.delta(ctx.before, ctx.after), units))
        per_layer.update(out["layers"])
        per_layer["trace.unattributed_s"] = unattributed / units
        per_layer["trace.overhead_frac"] = calls * calibrate_overhead() / walls
        per_layer["campaign.child_peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        )
        record["layers"] = per_layer
    Path(args.result).write_text(json.dumps(record))
    return 0


# --------------------------------------------------------------------------
# reporting


def _blas() -> dict:
    """BLAS library, its configuration and thread count, as loaded here."""
    import ctypes

    import numpy as np

    info = {}
    try:
        info["numpy_blas"] = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({w for w in fh.read().split() if "openblas" in w and ".so" in w})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    info["config"] = get_config().decode()
                    info["threads"] = int(get_threads())
                    return info
    return info


def machine_record() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "blas": _blas(),
    }


def versions_record() -> dict:
    import numpy
    import scipy

    def git(*cmd):
        try:
            out = subprocess.run(
                ["git", "-C", str(ROOT), *cmd], capture_output=True, text=True, timeout=10
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
    }


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_table(title: str, names: list[tuple[str, str]], records: dict, key: str) -> None:
    """One row per metric, one column per workload (medians over runs)."""
    from stats import median

    width = max(len(n) for n, _ in names) + 2
    print(f"\n{title}")
    print(" " * width + "".join(f"{w:>18}" for w in records) + "  unit")
    for name, unit in names:
        cells = [
            _fmt(median([(r.get(key) or {}).get(name) for r in rs])) for rs in records.values()
        ]
        print(f"{name:<{width}}" + "".join(f"{c:>18}" for c in cells) + f"  {unit}")


# --------------------------------------------------------------------------
# entry points


def single_main(args, spec: dict) -> int:
    record = measure(args.workload, args, spec, deadline=time.monotonic() + SINGLE_RUN_DEADLINE_S)
    kind = "per_layer" if args.trace else "end_to_end"
    values = record.get("layers" if args.trace else "metrics") or {}
    metrics = {}
    for m in spec[kind]:
        value = values.get(m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<40} {_fmt(value):>16} {m['unit']}")
    for name, ok in record.get("checks", {}).items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    if "error" in record:
        print(f"error: {record['error']}", file=sys.stderr)
    print(json.dumps({
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": metrics,
    }))
    return 0 if "error" not in record else 1


def suite_main(args, spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]]
    runs: dict[str, list[dict]] = {n: [] for n in names}
    traced: dict[str, list[dict]] = {n: [] for n in names}
    for repeat in range(args.repeats):
        for name in names:
            plain_args = argparse.Namespace(**{**vars(args), "trace": 0})
            record = measure(name, plain_args, spec)
            runs[name].append(record)
            print(f"[{repeat + 1}/{args.repeats}] {name}: "
                  f"{'ok' if record['correct'] else 'FAILED ' + record.get('error', '')}",
                  file=sys.stderr)
            if args.trace:
                trace_args = argparse.Namespace(**{**vars(args), "trace": 1})
                tr = measure(name, trace_args, spec)
                tr["checks"]["digests_match_untraced"] = tr.get("digests") == record.get("digests")
                tr["correct"] = tr["correct"] and tr["checks"]["digests_match_untraced"]
                traced[name].append(tr)
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    print_table("end-to-end metrics (median over runs)", e2e, runs, "metrics")
    for name in names:
        failed = [r for r in runs[name] + traced[name] if not r["correct"]]
        for r in failed:
            bad = [k for k, ok in r.get("checks", {}).items() if not ok]
            print(f"{name}: FAILED {r.get('error', '')} {' '.join(bad)}")
    if args.trace:
        layer_names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        print_table("per-layer metrics (traced runs)", layer_names, traced, "layers")
    if args.out:
        out = {
            "benchmark": "e2e", "profile": args.profile, "seed": args.seed,
            "seconds": args.seconds, "repeats": args.repeats,
            "machine": machine_record(), "versions": versions_record(),
            "runs": runs, "traced": traced if args.trace else {},
        }
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    ok = all(r["correct"] for rs in list(runs.values()) + list(traced.values()) for r in rs)
    return 0 if ok else 1


def parse_args(argv, spec: dict):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload and print one JSON result")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement budget per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--profile", default="full", choices=("full", "smoke"))
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--out", help="write the full record (suite mode) here")
    # internal: the set-up and workload processes
    parser.add_argument("--prepare", metavar="WORKLOAD", help=argparse.SUPPRESS)
    parser.add_argument("--child", metavar="WORKLOAD", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    return parser, args


def main(argv=None) -> int:
    spec = load_spec()
    parser, args = parse_args(argv, spec)
    if args.prepare or args.child:
        args.workload = args.prepare or args.child
        return prepare_main(args) if args.prepare else child_main(args)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no library at {SRC}/repro; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.repeats < 1:
        parser.error("--seconds and --repeats must be positive")
    if args.workload:
        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return single_main(args, spec)
    return suite_main(args, spec)


if __name__ == "__main__":
    sys.exit(main())
