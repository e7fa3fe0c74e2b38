"""Replay load harness: fire recorded/synthetic request traces at a server.

A :class:`RequestTrace` is a columnar (numpy) recording of a request
stream — key table plus per-request key/tenant/kind/deadline columns — so
million-request traces cost megabytes and load instantly.
:func:`synthetic_trace` draws a Zipf-skewed stream (a few hot timesteps
dominate, the regime where coalescing and result caching pay);
:func:`replay` plays any trace open-loop against a
:class:`~repro.serve.ReconstructionServer` with a bounded in-flight
window and reports :class:`ReplayStats` (p50/p99 latency, requests/sec,
batch occupancy, cache hit rates).  :func:`naive_throughput` measures the
one-request-one-reconstruction baseline — per request: load weights,
restore them into a model, reconstruct the full grid — that the server
is gated ≥5x against in ``benchmarks/test_bench_serve.py``.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.resilience.checkpoint import atomic_write_npz, read_verified_npz
from repro.serve.registry import ModelKey, ModelRegistry
from repro.serve.service import ReconstructionServer, ServeRequest

__all__ = [
    "RequestTrace",
    "ReplayStats",
    "synthetic_trace",
    "replay",
    "naive_throughput",
]

_KIND_FULL = 0
_KIND_CHUNK = 1


@dataclass
class RequestTrace:
    """Columnar recording of a request stream (replayable, npz-persistable)."""

    keys: list[ModelKey]          #: key table (deduplicated)
    key_idx: np.ndarray           #: per-request index into ``keys``
    tenants: list[str]            #: tenant table
    tenant_idx: np.ndarray        #: per-request index into ``tenants``
    kinds: np.ndarray             #: per-request 0=full, 1=chunk
    chunks: np.ndarray            #: chunk index (kind=chunk only)
    deadlines: np.ndarray         #: seconds (NaN = server default)

    def __post_init__(self) -> None:
        n = len(self.key_idx)
        for name in ("tenant_idx", "kinds", "chunks", "deadlines"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"trace column {name!r} has wrong length")

    @property
    def num_requests(self) -> int:
        return int(len(self.key_idx))

    def request(self, i: int) -> ServeRequest:
        deadline = float(self.deadlines[i])
        return ServeRequest(
            key=self.keys[self.key_idx[i]],
            tenant=self.tenants[self.tenant_idx[i]],
            kind="chunk" if self.kinds[i] == _KIND_CHUNK else "full",
            chunk=int(self.chunks[i]),
            deadline=None if np.isnan(deadline) else deadline,
        )

    def save(self, path: str | Path) -> None:
        # Checksummed + atomic (temp file, fsync, os.replace): a crashed
        # recording never leaves a truncated trace behind, and a damaged
        # one is refused at load instead of replaying garbage.
        atomic_write_npz(
            path,
            {
                "datasets": np.array([k.dataset for k in self.keys]),
                "fractions": np.array([k.fraction for k in self.keys], dtype=np.float64),
                "timesteps": np.array([k.timestep for k in self.keys], dtype=np.int64),
                "key_idx": self.key_idx,
                "tenants": np.array(self.tenants),
                "tenant_idx": self.tenant_idx,
                "kinds": self.kinds,
                "chunks": self.chunks,
                "deadlines": self.deadlines,
            },
        )

    @classmethod
    def load(cls, path: str | Path) -> "RequestTrace":
        data = read_verified_npz(path)
        keys = [
            ModelKey(str(d), float(f), int(t))
            for d, f, t in zip(data["datasets"], data["fractions"], data["timesteps"])
        ]
        return cls(
            keys=keys,
            key_idx=np.array(data["key_idx"]),
            tenants=[str(t) for t in data["tenants"]],
            tenant_idx=np.array(data["tenant_idx"]),
            kinds=np.array(data["kinds"]),
            chunks=np.array(data["chunks"]),
            deadlines=np.array(data["deadlines"]),
        )


def synthetic_trace(
    keys: list[ModelKey],
    num_requests: int,
    tenants: tuple[str, ...] = ("default",),
    seed: int = 0,
    skew: float = 1.1,
    chunk_fraction: float = 0.0,
    deadline: float | None = None,
) -> RequestTrace:
    """A Zipf-skewed synthetic request stream over ``keys``.

    ``skew`` is the Zipf exponent over a seeded random popularity ranking
    of the keys (higher = hotter hot set); ``chunk_fraction`` of requests
    ask for a single streamed chunk instead of the full field.
    """
    if not keys:
        raise ValueError("need at least one key to build a trace")
    if num_requests < 1:
        raise ValueError(f"num_requests must be >= 1, got {num_requests}")
    rng = np.random.default_rng(seed)
    ranks = rng.permutation(len(keys)).astype(np.float64)
    weights = 1.0 / (ranks + 1.0) ** float(skew)
    weights /= weights.sum()
    key_idx = rng.choice(len(keys), size=num_requests, p=weights).astype(np.int32)
    tenant_idx = rng.integers(0, len(tenants), size=num_requests, dtype=np.int32)
    kinds = (rng.random(num_requests) < chunk_fraction).astype(np.uint8)
    deadlines = np.full(num_requests, np.nan if deadline is None else float(deadline))
    return RequestTrace(
        keys=list(keys),
        key_idx=key_idx,
        tenants=list(tenants),
        tenant_idx=tenant_idx,
        kinds=kinds,
        chunks=np.zeros(num_requests, dtype=np.int32),
        deadlines=deadlines,
    )


@dataclass
class ReplayStats:
    """What one :func:`replay` run measured."""

    requests: int
    duration_s: float
    rps: float
    p50_ms: float
    p99_ms: float
    statuses: dict = field(default_factory=dict)
    batch_occupancy: float = 0.0
    cache_hit_rate: float = 0.0
    registry_hit_rate: float = 0.0
    server: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "duration_s": self.duration_s,
            "rps": self.rps,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "statuses": dict(self.statuses),
            "batch_occupancy": self.batch_occupancy,
            "cache_hit_rate": self.cache_hit_rate,
            "registry_hit_rate": self.registry_hit_rate,
            "server": dict(self.server),
        }


def replay(
    server: ReconstructionServer,
    trace: RequestTrace,
    max_in_flight: int = 256,
) -> ReplayStats:
    """Play ``trace`` against ``server`` open-loop; returns :class:`ReplayStats`.

    Requests are submitted as fast as the server accepts them with at
    most ``max_in_flight`` unresolved tickets — enough admission pressure
    that misses pile up in the queue and coalescing actually engages,
    while bounding replay memory.
    """
    if max_in_flight < 1:
        raise ValueError(f"max_in_flight must be >= 1, got {max_in_flight}")
    n = trace.num_requests
    latencies = np.empty(n, dtype=np.float64)
    num_ok = 0
    statuses: dict[str, int] = {}
    in_flight: deque = deque()

    def settle(ticket) -> None:
        nonlocal num_ok
        ticket.wait()
        statuses[ticket.status] = statuses.get(ticket.status, 0) + 1
        if ticket.status == "ok":
            latencies[num_ok] = ticket.latency
            num_ok += 1

    t0 = time.perf_counter()
    for i in range(n):
        ticket = server.submit(trace.request(i))
        if ticket.done():
            settle(ticket)
        else:
            in_flight.append(ticket)
            if len(in_flight) >= max_in_flight:
                settle(in_flight.popleft())
    while in_flight:
        settle(in_flight.popleft())
    duration = time.perf_counter() - t0

    lat_ms = latencies[:num_ok] * 1e3
    stats = server.stats()
    looked = stats["hits"] + stats["misses"]
    reg = stats["registry"]
    reg_looked = reg["hot_hits"] + reg["hot_misses"]
    return ReplayStats(
        requests=n,
        duration_s=duration,
        rps=n / duration if duration > 0 else float("inf"),
        p50_ms=float(np.percentile(lat_ms, 50)) if num_ok else float("nan"),
        p99_ms=float(np.percentile(lat_ms, 99)) if num_ok else float("nan"),
        statuses=statuses,
        batch_occupancy=stats["batch_occupancy"],
        cache_hit_rate=stats["hits"] / looked if looked else 0.0,
        registry_hit_rate=reg["hot_hits"] / reg_looked if reg_looked else 0.0,
        server=stats,
    )


def naive_throughput(
    registry: ModelRegistry,
    trace: RequestTrace,
    limit: int = 1000,
) -> tuple[float, float]:
    """One-request-one-reconstruction baseline: ``(requests/sec, seconds)``.

    Per request — no coalescing, no caches — the naive server
    loads the key's weights and sample values from the cold tier,
    restores the weights into a model and reconstructs the **full grid**,
    exactly the per-timestep offline path.  Measured over the first
    ``limit`` requests of ``trace`` (a full million would take hours;
    throughput is per-request stationary).
    """
    from repro.perf.weights import restore_weights

    n = min(int(limit), trace.num_requests)
    if n < 1:
        raise ValueError("need at least one request to measure")
    models: dict[str, object] = {}
    shells: dict[str, object] = {}
    t0 = time.perf_counter()
    for i in range(n):
        key = trace.keys[trace.key_idx[i]]
        ns = registry.namespace(key.dataset, key.fraction)
        model = models.get(ns.ns_id)
        if model is None:
            model = models[ns.ns_id] = ns.base.clone()
            shells[ns.ns_id] = ns.geometry.shell()
        weights = np.array(registry.cold_weights(key), dtype=np.float64, copy=True)
        values = np.array(registry.cold_values(key), dtype=np.float64, copy=True)
        restore_weights(model.model, weights)
        shell = shells[ns.ns_id]
        shell.values[...] = values
        model.reconstruct(shell)
    duration = time.perf_counter() - t0
    return (n / duration if duration > 0 else float("inf"), duration)
