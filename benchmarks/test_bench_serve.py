"""Reconstruction-as-a-service replay benchmark (``BENCH_serve``).

A populated model registry (pretrained base + per-timestep batched
fine-tunes, the ``repro serve build`` path) is hammered with a
Zipf-skewed synthetic request stream through three serving strategies:

* ``naive``     — one-request-one-reconstruction: per request, load the
  key's weights/values from the cold tier, restore them into a model and
  reconstruct the **full grid**.  No caches, no coalescing —
  the offline per-timestep path pressed into serving duty.  This is the
  gate's denominator (measured over a prefix of the trace; it is
  per-request stationary and a full million would take hours).
* ``unbatched`` — a :class:`repro.serve.ReconstructionServer` whose
  result ring holds one slot per namespace (``cache_slots=1``, the
  ``repro replay --cache-slots 1`` config CI diffs against).
* ``batched``   — the default config: request coalescing, one evaluation
  per namespace per dispatcher wake-up, hot-LRU model registry and a
  16-slot result ring.

The batched replay fires **>= 1M requests on the bench profile** and the
headline gate is ``batched_rps >= 5 x naive_rps`` — on one core: the
server's dispatcher and the replay loop share the process, so the win is
algorithmic (caching + coalescing), not parallelism.

Before any timing, every registry key is served once and the assembled
volume is byte-compared against the offline campaign sink
(:func:`repro.perf.campaign.make_reconstruction_sink` — ``run_campaign``'s
emit path) over the same weights: the serving layer must be a transport,
never a numeric.

``publish()`` writes ``results/BENCH_serve.json`` (p50/p99 latency, rps,
batch occupancy, cache/registry hit rates from the :mod:`repro.obs`
counters) and a copy lands at the repo root as the commit's serving perf
baseline.  The server runs leave obs records under
``results/obs_serve/<config>`` so CI can gate with::

    repro obs report benchmarks/results/obs_serve/unbatched \
        --diff benchmarks/results/obs_serve/batched \
        --only 'serve.*' --fail-on-regression
"""

import shutil
import time
from pathlib import Path

from conftest import RESULTS_DIR, publish
from repro.experiments.runner import ExperimentResult
from repro.obs import RunRecorder, load_run
from repro.parallel import usable_cpus
from repro.perf.campaign import make_reconstruction_sink
from repro.serve import (
    ReconstructionServer,
    ServeRequest,
    ServerConfig,
    build_registry,
    naive_throughput,
    replay,
    synthetic_trace,
)

#: per --bench-profile scale (grid, registry depth, request volume)
SIZES = {"quick": (10, 10, 5), "bench": (16, 16, 8), "paper": (24, 24, 12)}
EPOCHS = {"quick": 4, "bench": 12, "paper": 30}
TIMESTEPS = {
    "quick": (0, 1, 2),
    "bench": (0, 1, 2, 3, 4, 5),
    "paper": (0, 1, 2, 3, 4, 5, 6, 7),
}
HIDDEN = {"quick": (16, 8), "bench": (32, 16), "paper": (64, 32, 16)}
REQUESTS = {"quick": 20_000, "bench": 1_000_000, "paper": 2_000_000}

FRACTION = 0.05
TENANTS = tuple(f"tenant-{i}" for i in range(4))
NAIVE_LIMIT = 400          #: naive-baseline prefix (per-request stationary)
SKEW = 1.1
CONFIGS = ("naive", "unbatched", "batched")
OBS_DIRS = {name: RESULTS_DIR / "obs_serve" / name for name in ("unbatched", "batched")}
REPO_ROOT = Path(__file__).resolve().parent.parent


def _assert_served_bits_match_offline(registry) -> None:
    """Every key's served volume == the offline campaign sink's, bytewise."""
    by_ns: dict = {}
    for key in registry.keys():
        by_ns.setdefault(key.namespace_id, []).append(key)
    with ReconstructionServer(registry, ServerConfig()) as server:
        for ns_id, keys in by_ns.items():
            ns = registry.namespace(keys[0].dataset, keys[0].fraction)
            sink = make_reconstruction_sink(
                ns.geometry, {"fcnn": ns.base.clone()}, warm_pool=False
            )
            try:
                for key in keys:
                    weights, values = registry.hot(key)
                    slot = sink.publish(key.timestep, values, {"fcnn": weights})
                    offline, _ = sink.reconstruct(slot, "fcnn")
                    served = server.serve(ServeRequest(key=key), timeout=120)
                    assert served.assemble().tobytes() == offline.tobytes(), (
                        f"served {key} is not bit-identical to the offline sink"
                    )
            finally:
                sink.close()


def _server_run(registry, trace, *, name, profile, batched):
    obs_dir = OBS_DIRS[name]
    shutil.rmtree(obs_dir, ignore_errors=True)
    config = ServerConfig(cache_slots=16 if batched else 1)
    with RunRecorder(obs_dir, meta={"config": name, "profile": profile}):
        with ReconstructionServer(registry, config) as server:
            stats = replay(server, trace)
    counters = load_run(obs_dir).metrics["counters"]
    return {"stats": stats, "counters": counters}


def test_serve_replay(benchmark, bench_profile, tmp_path):
    profile = bench_profile
    num_requests = REQUESTS[profile]
    registry = build_registry(
        tmp_path / "registry",
        dims=SIZES[profile],
        fraction=FRACTION,
        timesteps=TIMESTEPS[profile],
        epochs=EPOCHS[profile],
        finetune_epochs=4,
        hidden=HIDDEN[profile],
        train_fractions=(0.01, FRACTION),
        seed=0,
    )
    # Correctness precondition: serving is a transport, not a numeric.
    _assert_served_bits_match_offline(registry)

    trace = synthetic_trace(
        registry.keys(),
        num_requests,
        tenants=TENANTS,
        seed=0,
        skew=SKEW,
        chunk_fraction=0.05,
    )
    # The unbatched server replays a prefix: same per-request regime, and
    # the full million through a cache-starved server adds nothing but wall
    # clock.  Its rps row is informational; the gate is vs `naive`.
    unbatched_trace = synthetic_trace(
        registry.keys(),
        min(num_requests, 100_000),
        tenants=TENANTS,
        seed=0,
        skew=SKEW,
        chunk_fraction=0.05,
    )

    def run():
        out = {}
        naive_rps, naive_s = naive_throughput(registry, trace, limit=NAIVE_LIMIT)
        out["naive"] = {"rps": naive_rps, "duration_s": naive_s}
        out["unbatched"] = _server_run(
            registry, unbatched_trace, name="unbatched", profile=profile, batched=False
        )
        out["batched"] = _server_run(
            registry, trace, name="batched", profile=profile, batched=True
        )
        return out

    # One warmup round: first-touch of the cold mmaps, the evaluator's
    # arena allocations and the kd-tree memo would otherwise bill to the
    # measured replay.
    runs = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=1)
    naive = runs["naive"]
    batched, unbatched = runs["batched"]["stats"], runs["unbatched"]["stats"]
    counters = runs["batched"]["counters"]

    # --- sanity on the measured replay ------------------------------------
    assert batched.requests == num_requests
    assert batched.statuses.get("ok", 0) == num_requests  # nothing shed/errored
    assert batched.batch_occupancy >= 1.0
    assert 0.0 < batched.cache_hit_rate <= 1.0
    assert counters["serve.requests"] == num_requests
    assert counters["serve.cache.hits"] == batched.server["hits"]

    speedup = batched.rps / naive["rps"]
    unbatched_speedup = unbatched.rps / naive["rps"]

    rows = [
        {
            "config": "naive",
            "requests": NAIVE_LIMIT,
            "rps": round(naive["rps"], 1),
            "p50_ms": None,
            "p99_ms": None,
            "batch_occupancy": None,
            "cache_hit_rate": None,
            "registry_hit_rate": None,
            "speedup_vs_naive": 1.0,
        }
    ]
    for name, stats, speed in (
        ("unbatched", unbatched, unbatched_speedup),
        ("batched", batched, speedup),
    ):
        rows.append(
            {
                "config": name,
                "requests": stats.requests,
                "rps": round(stats.rps, 1),
                "p50_ms": round(stats.p50_ms, 4),
                "p99_ms": round(stats.p99_ms, 4),
                "batch_occupancy": round(stats.batch_occupancy, 3),
                "cache_hit_rate": round(stats.cache_hit_rate, 4),
                "registry_hit_rate": round(stats.registry_hit_rate, 4),
                "speedup_vs_naive": round(speed, 1),
            }
        )
    result = ExperimentResult(
        experiment="serve",
        rows=rows,
        series={"rps": {r["config"]: r["rps"] for r in rows}},
        notes={
            "profile": profile,
            "dims": "x".join(str(d) for d in SIZES[profile]),
            "registry_keys": len(registry),
            "requests": num_requests,
            "tenants": len(TENANTS),
            "zipf_skew": SKEW,
            "chunk_fraction": 0.05,
            "effective_cores": usable_cpus(),
            "served_bits_match_offline_sink": True,
            "serve_evals": batched.server["evals"],
            "serve_coalesced": batched.server["coalesced"],
            "speedup_vs_naive": round(speedup, 2),
            "target": "batched rps >= 5x naive one-request-one-reconstruction rps",
        },
    )
    publish(result)
    # the commit's serving perf baseline lives at the repo root
    shutil.copyfile(RESULTS_DIR / "BENCH_serve.json", REPO_ROOT / "BENCH_serve.json")

    # --- gates (off-quick: quick sizes measure harness noise) -------------
    if profile != "quick":
        assert num_requests >= 1_000_000
        assert speedup >= 5.0, (
            f"batched serving {speedup:.1f}x naive < 5x "
            f"({batched.rps:.0f} vs {naive['rps']:.0f} rps on "
            f"{usable_cpus()} core(s))"
        )
