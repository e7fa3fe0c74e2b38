"""The four end-to-end workloads, run inside one workload process each.

Every workload uses the ``combustion`` dataset, sampling fraction 0.05 and
hidden layers (128, 64, 32, 16).  ``seed`` seeds the workloads' inputs:
which grid points the sampler keeps, and which registry keys the request
trace makes popular.  What belongs to the system rather than its input is
fixed by :data:`FIXED_SEED`: the simulated field, the model's
initialisation and shuffling, and the served registry.  Across dataset
seeds the reconstruction SNR moves by 5-17 % and across model seeds by
2-5 %, more than a quality bound worth gating on.  Everything else is a
library default: the pipelined campaign scheduler, the warm
reconstruction pool and ``ServerConfig()``.

A workload function receives a :class:`Context` and returns a result dict
(``metrics``, ``attempted``, ``failed``, ``checks``, ``digests``, ``walls``,
``windows``, ``units``, ``layers``, ``info``); ``run.py`` turns it into a record.
Measured work sits between ``ctx.begin()`` and ``ctx.end()``; untimed
correctness checks follow.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.pipeline import ReconstructionPipeline
from repro.core.reconstructor import FCNNReconstructor
from repro.datasets.registry import make_dataset
from repro.insitu.campaign import WAL_DIRNAME, CampaignReader, InSituWriter
from repro.interpolation import NearestNeighborInterpolator
from repro.metrics import score_reconstruction
from repro.perf.campaign import make_reconstruction_sink
from repro.sampling import MultiCriteriaSampler
from repro.serve import (
    ModelKey,
    ModelRegistry,
    ReconstructionServer,
    ServeRequest,
    RequestTrace,
    ServerConfig,
    replay,
    synthetic_trace,
)

from stats import tail_percentile

DATASET = "combustion"
FIXED_SEED = 0
FRACTION = 0.05
HIDDEN = (128, 64, 32, 16)
#: The request mix is synthetic and has not been checked against any
#: recorded traffic.  Zipf 1.1 key popularity and 4 tenants are the
#: defaults of ``repro replay``; 5 % single-chunk requests is an assumption.
TENANTS = ("t0", "t1", "t2", "t3")
CHUNK_FRACTION = 0.05
#: Seed of the request trace's popularity-rank sequence (see _zipf_trace).
TRACE_SEED = 20240101
#: Requests the measured serve block keeps outstanding.  Concurrent misses
#: queue behind the evaluation in progress, so the server stacks them and
#: coalesces duplicate keys; with at most 4 outstanding, stacks hold at
#: most 4 models, the evaluator's arena buffers (one per stack size it has
#: seen) are all allocated during the warm-up, and peak memory repeats.
IN_FLIGHT = 4
#: Registry fine-tunes run in blocks of this many timesteps: one fused
#: stack over all 64 timesteps (what ``build_registry`` does) peaks near
#: 6 GB, and batched results do not depend on the block size.
BUILD_BLOCK = 8
#: A serve rung fails a request still pending this long after its last send.
DRAIN_S = 5.0
#: Latency limit for ``max_rate_rps`` and the generator lateness that
#: invalidates a rung.
LATENCY_LIMIT_S = 0.25
LATENESS_LIMIT_S = 0.05
#: Set-up repetitions whose median is ``setup_s``.
SETUP_REPEATS = 5
#: Per-rung serve metrics, reported as ``serve.r<rate>.<name>``.
RUNG_METRICS = (
    "latency_tail_ms", "miss_p50_ms", "hit_p50_ms", "cache_hit_rate",
    "evals", "mean_k", "busy_frac", "lateness_ms",
)


@dataclass(frozen=True)
class Profile:
    dims: tuple[int, int, int]
    pretrain_epochs: int
    batched_steps: tuple[int, ...]
    batched_epochs: int
    rolling_steps: tuple[int, ...]
    rolling_epochs: int
    insitu_steps: int
    serve_dims: tuple[int, int, int]
    serve_keys: int
    serve_epochs: int
    serve_finetune_epochs: int
    warmup_requests: int
    block_requests: int
    rungs: tuple[tuple[int, float], ...]  # (requests/s, seconds)

    @property
    def check_steps(self) -> list[int]:
        """The 8 registry keys whose served bytes are digested and checked."""
        return list(range(self.serve_keys))[:: max(1, self.serve_keys // 8)][:8]

    @property
    def trace_requests(self) -> int:
        """Requests of the serve trace: warm-up, block, then every rung."""
        rungs = sum(_rung_requests(rate, seconds) for rate, seconds in self.rungs)
        return self.warmup_requests + self.block_requests + rungs


PROFILES = {
    "full": Profile(
        dims=(72, 72, 36),
        pretrain_epochs=3,
        batched_steps=(0, 4, 8, 12),
        batched_epochs=5,
        rolling_steps=(0, 6, 12),
        rolling_epochs=3,
        insitu_steps=100,
        serve_dims=(36, 36, 18),
        serve_keys=64,
        serve_epochs=10,
        serve_finetune_epochs=4,
        warmup_requests=64,
        block_requests=300,
        rungs=((20, 2.5), (40, 5.25), (80, 2.5), (160, 2.0)),
    ),
    "smoke": Profile(
        dims=(12, 12, 6),
        pretrain_epochs=40,
        batched_steps=(0, 1),
        batched_epochs=5,
        rolling_steps=(0, 1),
        rolling_epochs=5,
        insitu_steps=2,
        serve_dims=(12, 12, 6),
        serve_keys=8,
        serve_epochs=40,
        serve_finetune_epochs=5,
        warmup_requests=8,
        block_requests=40,
        rungs=((20, 2.0), (40, 2.0), (80, 2.0), (160, 2.0)),
    ),
}


@dataclass
class Context:
    """One workload run: its inputs, and the tracer tables around the measured work."""

    seed: int
    seconds: float
    profile: Profile
    workdir: Path
    tracer: object | None = None
    before: dict | None = None
    after: dict | None = None

    def begin(self) -> None:
        if self.tracer is not None:
            self.before = self.tracer.merged()

    def end(self) -> None:
        if self.tracer is not None:
            self.after = self.tracer.merged()


# --------------------------------------------------------------------------
# helpers


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return h.hexdigest()


def _repeat(job, seconds: float, between=None):
    """Run ``job`` until another run would end past ``seconds``; at least once.

    ``between()`` runs untimed before every run but the first.  Returns the
    last job's output, each run's wall and window, and the peak RSS after
    the first run: later runs of the same job in one process add allocator
    growth that depends on how many fit (up to +15 % after five in situ
    runs), which a user running it once never sees.
    """
    walls, windows = [], []
    peak_rss_mb = None
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        out = job()
        end = time.perf_counter()
        walls.append(end - start)
        windows.append((start, end))
        if peak_rss_mb is None:
            peak_rss_mb = _peak_rss_mb()
        if end - t0 + statistics.median(walls) > seconds:
            return out, walls, windows, peak_rss_mb
        if between is not None:
            between()


def _setup(build, discard=None) -> tuple[float, object]:
    """The median seconds of :data:`SETUP_REPEATS` calls to ``build``.

    Returns it with the last build; ``discard`` releases the others,
    untimed.
    """
    times = []
    built = None
    for _ in range(SETUP_REPEATS):
        if built is not None and discard is not None:
            discard(built)
        t0 = time.perf_counter()
        built = build()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), built


def _snr_stats(snrs) -> dict:
    return {"snr_mean_db": float(np.mean(snrs)), "snr_min_db": float(np.min(snrs))}


# --------------------------------------------------------------------------
# campaigns


def _campaign(ctx: Context, batched: bool) -> dict:
    p = ctx.profile
    steps = list(p.batched_steps if batched else p.rolling_steps)
    epochs = p.batched_epochs if batched else p.rolling_epochs

    def build():
        data = make_dataset(DATASET, dims=p.dims, seed=FIXED_SEED)
        data.field(steps[0])
        return data

    setup_s, data = _setup(build)

    def job():
        pipe = ReconstructionPipeline(
            dataset=data, sampler=MultiCriteriaSampler(seed=ctx.seed), keep_reconstructions=True
        )
        recon = FCNNReconstructor(hidden_layers=HIDDEN, seed=FIXED_SEED)
        pipe.train_fcnn(recon, timestep=steps[0], epochs=p.pretrain_epochs)
        if batched:
            return pipe.run_campaign(
                recon, steps, FRACTION,
                batched_finetune=True, finetune_strategy="last", finetune_epochs=epochs,
            )
        return pipe.run_campaign(recon, steps, FRACTION, finetune_epochs=epochs)

    ctx.begin()
    result, walls, windows, peak_rss_mb = _repeat(job, ctx.seconds)
    ctx.end()

    volumes = result.reconstructions
    snrs = [row["snr"] for row in result.rows]
    num_points = data.grid.num_points
    voids = num_points - int(round(FRACTION * num_points))
    degraded = sum(int(row["degraded_points"]) for row in result.rows)
    quarantined = len(result.quarantined) * voids

    checks = {
        "volumes_finite": all(np.isfinite(v).all() for v in volumes),
        "no_degraded_points": degraded == 0 and quarantined == 0,
    }
    return {
        "metrics": {"wall_s": statistics.median(walls), "setup_s": setup_s,
                    "peak_rss_mb": peak_rss_mb, **_snr_stats(snrs)},
        "attempted": len(walls) * len(steps) * voids,
        "failed": len(walls) * (degraded + quarantined),
        "checks": checks,
        "digests": {"volumes": _digest(volumes)},
        "walls": walls,
        "windows": windows,
        "units": len(walls),
        "layers": {},
        "info": {"snr_db": snrs},
    }


def campaign_batched(ctx: Context) -> dict:
    return _campaign(ctx, batched=True)


def campaign_rolling(ctx: Context) -> dict:
    return _campaign(ctx, batched=False)


# --------------------------------------------------------------------------
# in situ sampling


def _tree_digest(directory: Path) -> str:
    """Digest of every file under ``directory`` except the journal's ``.wal/``."""
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        rel = path.relative_to(directory)
        if path.is_file() and rel.parts[0] != WAL_DIRNAME:
            h.update(str(rel).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def insitu_sample(ctx: Context) -> dict:
    p = ctx.profile
    steps = list(range(p.insitu_steps))

    def build():
        data = make_dataset(DATASET, dims=p.dims, seed=FIXED_SEED)
        data.field(steps[0])
        return data

    setup_s, data = _setup(build)
    directory = ctx.workdir / "insitu"

    def job():
        writer = InSituWriter(data, MultiCriteriaSampler(seed=ctx.seed), FRACTION, train_model=False)
        return writer.run(directory, steps, journal=True)

    ctx.begin()
    manifest, walls, windows, peak_rss_mb = _repeat(
        job, ctx.seconds, between=lambda: shutil.rmtree(directory)
    )
    ctx.end()

    listed = [t for t in steps if str(t) in manifest.cloud_files]
    present = [t for t in listed if (directory / manifest.cloud_files[str(t)]).is_file()]
    reader = CampaignReader(directory)
    # Untimed: read clouds back and fill them by nearest neighbour — what
    # the written samples can give back without any network.
    probe = sorted({steps[int(i)] for i in np.linspace(0, len(steps) - 1, min(4, len(steps)))})
    snrs, readback_ok = [], True
    for t in probe:
        truth = data.field(t)
        sample = reader.load_sample(t)
        readback_ok &= bool(np.array_equal(sample.values, truth.flat[sample.indices]))
        volume = reader.reconstruct(t, method=NearestNeighborInterpolator())
        snrs.append(score_reconstruction(truth.values, volume).snr)
    written = sum(f.stat().st_size for f in directory.rglob("*") if f.is_file())
    checks = {
        "manifest_lists_every_timestep": reader.timesteps == steps,
        "clouds_read_back": readback_ok,
    }
    result = {
        "metrics": {"wall_s": statistics.median(walls), "setup_s": setup_s,
                    "peak_rss_mb": peak_rss_mb, **_snr_stats(snrs)},
        "attempted": len(steps),
        "failed": len(steps) - len(present) + (0 if readback_ok else 1),
        "checks": checks,
        "digests": {"files": _tree_digest(directory)},
        "walls": walls,
        "windows": windows,
        "units": len(walls),
        "layers": {},
        "info": {"bytes_written": written, "nearest_snr_db": dict(zip(probe, snrs))},
    }
    shutil.rmtree(directory)
    return result


# --------------------------------------------------------------------------
# serving


def serve_layer_names(profile: Profile) -> list[str]:
    """The per-layer names only the serve workload measures (zero elsewhere)."""
    names = ["serve.max_rate_rps", "serve.registry_hit_rate", "serve.block.coalesced",
             "serve.block.mean_k", "serve.block.cache_hit_rate"]
    return names + [f"serve.r{rate}.{m}" for rate, _ in profile.rungs for m in RUNG_METRICS]


def _registry_root(workdir: Path) -> Path:
    return workdir / "registry"


def prepare_serve(profile: Profile, workdir: Path) -> dict:
    """Build the registry (the serve workload's set-up subprocess).

    A copy of :func:`repro.serve.build_registry` that fine-tunes in blocks
    of :data:`BUILD_BLOCK` timesteps; it must follow every change to that
    function until the function takes a block size, and ``setup_s`` times
    this copy, not the library's.  Also reconstructs the check keys
    offline through ``make_reconstruction_sink`` so the measured process
    can compare served bytes against them.
    """
    p = profile
    t0 = time.perf_counter()
    data = make_dataset(DATASET, dims=p.serve_dims, seed=FIXED_SEED)
    pipe = ReconstructionPipeline(dataset=data, sampler=MultiCriteriaSampler(seed=FIXED_SEED))
    recon = FCNNReconstructor(hidden_layers=HIDDEN, seed=FIXED_SEED)
    pipe.train_fcnn(recon, timestep=0, epochs=p.serve_epochs)
    geometry = pipe.geometry_cache.get(
        pipe.sample(pipe.field(0), FRACTION), dtype=recon.dtype_policy.compute
    )
    registry = ModelRegistry(_registry_root(workdir), geometry_cache=pipe.geometry_cache)
    registry.create_namespace(data.name, FRACTION, recon, geometry.grid, geometry.indices)
    steps = list(range(p.serve_keys))
    for i in range(0, len(steps), BUILD_BLOCK):
        block = steps[i : i + BUILD_BLOCK]
        fields = [pipe.field(t) for t in block]
        trains = [[pipe.sample(f, fr) for fr in pipe.train_fractions] for f in fields]
        flats, _ = recon.fine_tune_batch(fields, trains, epochs=p.serve_finetune_epochs)
        for t, fld, flat in zip(block, fields, flats):
            registry.put(ModelKey(data.name, FRACTION, t), flat, fld.values.ravel()[geometry.indices])
    build_s = time.perf_counter() - t0

    offline = {}
    sink = make_reconstruction_sink(geometry, {"fcnn": recon})
    try:
        for t in p.check_steps:
            key = ModelKey(data.name, FRACTION, t)
            slot = sink.publish(
                t, np.array(registry.cold_values(key)), {"fcnn": np.array(registry.cold_weights(key))}
            )
            volume, _report = sink.reconstruct(slot, "fcnn")
            offline[str(t)] = _digest([volume])
    finally:
        sink.close()
    return {"build_s": build_s, "offline": offline}


def _zipf_trace(keys: list, n: int, seed: int) -> RequestTrace:
    """``synthetic_trace`` with a fixed sequence of popularity ranks.

    The rank sequence (and so every cache's hit/miss pattern) is the same
    for every seed; ``seed`` decides which key holds each rank, i.e. which
    fine-tuned models are hot.  Miss counts per block then do not vary
    with the seed, which would otherwise add binomial noise of ~8 % to the
    block's wall time.
    """
    trace = synthetic_trace(keys, n, TENANTS, seed=TRACE_SEED, chunk_fraction=CHUNK_FRACTION)
    key_of_rank = np.random.default_rng(seed).permutation(len(keys))
    return dataclasses.replace(trace, key_idx=key_of_rank[trace.key_idx].astype(np.int32))


def _slice(trace: RequestTrace, start: int, stop: int) -> RequestTrace:
    columns = ("key_idx", "tenant_idx", "kinds", "chunks", "deadlines")
    return dataclasses.replace(trace, **{c: getattr(trace, c)[start:stop] for c in columns})


def _rung_requests(rate: int, seconds: float) -> int:
    return max(1, int(round(rate * seconds)))


def _busy(tracer) -> float | None:
    """Dispatcher busy seconds so far: registry reads + stacked evaluation."""
    if tracer is None:
        return None
    total = tracer.merged()["total"]
    return total.get("serve.evaluate", 0.0) + total.get("serve.registry.hot", 0.0)


def _rung(server, trace, start: int, rate: int, seconds: float, tracer) -> tuple[dict, int]:
    """One open-loop rung: ``rate`` requests/s for ``seconds`` from one generator.

    Each request is timed from its scheduled send time, so a stalled
    generator or server charges the wait to every request behind it.
    """
    clock = time.monotonic  # the server's ticket clock
    n = _rung_requests(rate, seconds)
    before, busy0 = server.stats(), _busy(tracer)
    begin = clock() + 0.005
    sent = []
    for k in range(n):
        due = begin + k / rate
        delay = due - clock()
        if delay > 0:
            time.sleep(delay)
        late = clock() - due
        ticket = server.submit(trace.request(start + k))
        sent.append((due, late, ticket, ticket.done()))
    last_due = begin + (n - 1) / rate
    for _, _, ticket, _ in sent:
        ticket.wait(max(0.0, last_due + DRAIN_S - clock()))
    end = clock()
    after, busy1 = server.stats(), _busy(tracer)

    ok = [(due, t, hit) for due, _, t, hit in sent if t.status == "ok" and t.completed is not None]
    failed = n - len(ok)
    latency = [(t.completed - due) * 1e3 for due, t, _ in ok] + [float("inf")] * failed
    pct, tail = tail_percentile(latency)
    hits = [(t.completed - due) * 1e3 for due, t, hit in ok if hit]
    misses = [(t.completed - due) * 1e3 for due, t, hit in ok if not hit]
    d = {k: after[k] - before[k] for k in ("hits", "misses", "evals", "eval_members")}
    lateness = max(late for _, late, _, _ in sent)
    finished_by = max((t.completed for _, t, _ in ok), default=float("inf"))
    stats = {
        "requests": n,
        "failed": failed,
        "tail_pct": pct,
        "latency_tail_ms": tail if tail is not None and np.isfinite(tail) else None,
        "miss_p50_ms": float(np.median(misses)) if misses else 0.0,
        "hit_p50_ms": float(np.median(hits)) if hits else 0.0,
        "cache_hit_rate": d["hits"] / max(1, d["hits"] + d["misses"]),
        "evals": d["evals"],
        "mean_k": d["eval_members"] / d["evals"] if d["evals"] else 0.0,
        "busy_frac": None if busy0 is None else (busy1 - busy0) / (end - begin),
        "lateness_ms": lateness * 1e3,
    }
    stats["meets_limit"] = bool(
        failed == 0
        and lateness <= LATENESS_LIMIT_S
        and stats["latency_tail_ms"] is not None
        and stats["latency_tail_ms"] <= LATENCY_LIMIT_S * 1e3
        and finished_by <= last_due + LATENCY_LIMIT_S
    )
    return stats, failed


def serve_zipf(ctx: Context) -> dict:
    p = ctx.profile
    prep = json.loads((ctx.workdir / "prepare.json").read_text())
    keys = [ModelKey(DATASET, FRACTION, t) for t in range(p.serve_keys)]
    trace = _zipf_trace(keys, p.trace_requests, ctx.seed)
    block_end = p.warmup_requests + p.block_requests
    warmup, block = _slice(trace, 0, p.warmup_requests), _slice(trace, p.warmup_requests, block_end)

    def build():
        server = ReconstructionServer(ModelRegistry(_registry_root(ctx.workdir)), ServerConfig())
        replay(server, warmup, max_in_flight=IN_FLIGHT)
        return server

    def discard(server):
        server.close()
        # Free the evaluator's arena now, not whenever the cycle collector
        # runs: otherwise two servers' buffers may coexist and peak memory
        # depends on collector timing.
        gc.collect()

    open_s, server = _setup(build, discard)
    setup_s = open_s + prep["build_s"]
    failed = attempted = 0
    base_stats, base_registry = server.stats(), server.registry.stats()

    # Closed loop with IN_FLIGHT requests outstanding: the same block of
    # requests replayed while the budget lasts, so every block after the
    # first starts from nearly the same cache state and the median block
    # does not depend on how many fit.
    ctx.begin()
    walls, windows = [], []
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        stats = replay(server, block, max_in_flight=IN_FLIGHT)
        walls.append(stats.duration_s)
        windows.append((start, time.perf_counter()))
        attempted += stats.requests
        failed += stats.requests - stats.statuses.get("ok", 0)
        elapsed = time.perf_counter() - t0
        if len(walls) >= 3 and elapsed + statistics.median(walls) > ctx.seconds:
            break
    block_stats = server.stats()
    # The open-loop ladder below overloads the server, which then stacks
    # up to ServerConfig.max_batch models; peak memory after it depends on
    # which stack sizes the queue happened to form (1.3-1.9 GB), so it is
    # not gated.  The end-to-end figure is the peak through set-up and the
    # blocks.
    peak_rss_mb = _peak_rss_mb()
    # The ladder feeds only per-layer metrics, so it runs in traced runs.
    rungs = {}
    if ctx.tracer is not None:
        cursor = block_end
        ladder_start = time.perf_counter()
        for rate, seconds in p.rungs:
            stats, bad = _rung(server, trace, cursor, rate, seconds, ctx.tracer)
            rungs[rate] = stats
            cursor += stats["requests"]
            attempted += stats["requests"]
            failed += bad
        windows.append((ladder_start, time.perf_counter()))
    ctx.end()

    end_registry = server.registry.stats()
    reg_hits = end_registry["hot_hits"] - base_registry["hot_hits"]
    reg_misses = end_registry["hot_misses"] - base_registry["hot_misses"]
    passing = [rate for rate, s in rungs.items() if s["meets_limit"]]
    d = {k: block_stats[k] - base_stats[k]
         for k in ("hits", "misses", "evals", "eval_members", "coalesced")}
    layers = {
        "serve.max_rate_rps": float(max(passing, default=0)),
        "serve.registry_hit_rate": reg_hits / max(1, reg_hits + reg_misses),
        "serve.block.coalesced": d["coalesced"] / len(walls),
        "serve.block.mean_k": d["eval_members"] / max(1, d["evals"]),
        "serve.block.cache_hit_rate": d["hits"] / max(1, d["hits"] + d["misses"]),
    }
    for rate, s in rungs.items():
        for name in RUNG_METRICS:
            layers[f"serve.r{rate}.{name}"] = s[name]

    # Untimed: the check keys' served bytes against the offline sink, and
    # their quality against the simulation.
    data = make_dataset(DATASET, dims=p.serve_dims, seed=FIXED_SEED)
    served, snrs = [], []
    for t in p.check_steps:
        volume = server.serve(ServeRequest(ModelKey(DATASET, FRACTION, t)), timeout=30).assemble()
        served.append(_digest([volume]))
        snrs.append(score_reconstruction(data.field(t).values, volume).snr)
    server.close()
    expected = [prep["offline"][str(t)] for t in p.check_steps]
    return {
        "metrics": {"wall_s": statistics.median(walls), "setup_s": setup_s,
                    "peak_rss_mb": peak_rss_mb, **_snr_stats(snrs)},
        "attempted": attempted,
        "failed": failed,
        "checks": {"served_bytes_match_offline": served == expected},
        "digests": {"served": hashlib.sha256("".join(served).encode()).hexdigest()},
        "walls": walls,
        "windows": windows,
        "units": 1,
        "layers": layers,
        "info": {"rungs": {str(r): s for r, s in rungs.items()},
                 "build_s": prep["build_s"], "open_s": open_s},
    }


#: name -> (workload function, set-up subprocess or None)
WORKLOADS = {
    "campaign-batched": (campaign_batched, None),
    "campaign-rolling": (campaign_rolling, None),
    "insitu-sample": (insitu_sample, None),
    "serve-zipf": (serve_zipf, prepare_serve),
}
