"""Reconstruction-as-a-service: registry, serving engine, replay bench.

The front door over the campaign substrate: trained per-timestep
weights live in a durable :class:`ModelRegistry` (mmap'd cold tier + hot
LRU), a :class:`ReconstructionServer` coalesces concurrent requests and
answers the distinct keys of one namespace pending at a dispatcher
wake-up with one :class:`StackEvaluator` evaluation, with per-tenant
token-bucket backpressure and deadline shedding, and responses stream as
aligned predict-block chunks straight out of a per-namespace result
ring — bit-identical to the offline ``run_campaign`` reconstruction path
for the same weights.  :mod:`repro.serve.replay` replays recorded or
synthetic request traces against a server for load benchmarking
(``benchmarks/test_bench_serve.py``, ``BENCH_serve.json``).

See ``docs/SERVING.md`` for architecture, semantics and the SLO metric
catalog.
"""

from repro.serve.build import build_registry
from repro.serve.engine import StackEvaluator
from repro.serve.registry import ModelKey, ModelRegistry, RegistryNamespace
from repro.serve.replay import (
    ReplayStats,
    RequestTrace,
    naive_throughput,
    replay,
    synthetic_trace,
)
from repro.serve.service import (
    ReconstructionServer,
    ServeError,
    ServeRequest,
    ServedChunk,
    ServedField,
    ServerConfig,
    StaleResultError,
    Ticket,
    TokenBucket,
)

__all__ = [
    "ModelKey",
    "ModelRegistry",
    "RegistryNamespace",
    "StackEvaluator",
    "ReconstructionServer",
    "ServerConfig",
    "ServeRequest",
    "ServedField",
    "ServedChunk",
    "ServeError",
    "StaleResultError",
    "Ticket",
    "TokenBucket",
    "RequestTrace",
    "ReplayStats",
    "replay",
    "synthetic_trace",
    "naive_throughput",
    "build_registry",
]
