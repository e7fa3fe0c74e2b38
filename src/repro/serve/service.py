# hot-path
"""Reconstruction-as-a-service: async request queue over the inference kernel.

A :class:`ReconstructionServer` accepts reconstruction requests for any
registry key and answers them from a single dispatcher thread (stdlib
threading only):

* **coalescing** — concurrent requests for the same (dataset, fraction,
  timestep) are answered by one evaluation (counter ``serve.coalesced``),
  and each dispatcher wake-up answers every distinct pending key of a
  namespace with one :meth:`repro.serve.StackEvaluator.evaluate` call;
* **result caching** — evaluated rows land in a per-namespace slot ring
  of process-local arrays, and repeated requests complete synchronously
  at submit (counters ``serve.cache.hits`` / ``.misses``);
* **backpressure** — per-tenant token buckets throttle at submit
  (``serve.throttled``), a queue bound rejects floods (``serve.rejected``)
  and requests whose deadline lapses while queued are shed instead of
  evaluated (``serve.shed``);
* **streaming** — full-field responses are :class:`ServedField` views
  over the cached rows that stream as aligned predict-block chunks
  (:meth:`ServedField.chunks`); nothing materializes a full grid unless
  the caller asks (:meth:`ServedField.assemble`).

Responses are zero-copy views into the slot ring: like the warm pool's
slot discipline, a result stays valid until its slot is recycled — after
``cache_slots`` further distinct evaluations — and stale access raises
:class:`StaleResultError` (re-request; a cache miss re-evaluates to the
same bits).  Served bits are the serial offline path's bits; see
:mod:`repro.serve.engine` for the contract and ``docs/SERVING.md`` for
the architecture and the SLO metric catalog.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field

import numpy as np

from repro.obs import counter as obs_counter
from repro.obs import gauge as obs_gauge
from repro.obs import histogram as obs_histogram
from repro.obs import record_event, span
from repro.resilience.health import check_on_nonfinite
from repro.serve.engine import StackEvaluator
from repro.serve.registry import ModelKey, ModelRegistry

__all__ = [
    "ServeError",
    "StaleResultError",
    "ServeRequest",
    "ServerConfig",
    "ServedChunk",
    "ServedField",
    "Ticket",
    "TokenBucket",
    "ReconstructionServer",
]


class ServeError(RuntimeError):
    """A request could not be served (throttled, shed, rejected or failed)."""


class StaleResultError(ServeError):
    """A response's slot was recycled; re-request to re-materialize it."""


@dataclass(frozen=True)
class ServeRequest:
    """One reconstruction request.

    ``kind="full"`` answers with a :class:`ServedField` (streamable
    chunks, optional full-grid assembly); ``kind="chunk"`` answers with a
    single aligned predict-block :class:`ServedChunk`.  ``deadline`` is
    seconds from submit after which the request is shed instead of
    evaluated (``None`` — the server's default).
    """

    key: ModelKey
    tenant: str = "default"
    kind: str = "full"
    chunk: int = 0
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("full", "chunk"):
            raise ValueError(f"kind must be 'full' or 'chunk', got {self.kind!r}")


@dataclass
class ServerConfig:
    """Tunables of one :class:`ReconstructionServer`."""

    cache_slots: int = 16         #: result-ring slots per namespace
    max_queue: int = 100_000      #: queued-request bound (reject beyond)
    default_deadline: float | None = None  #: seconds; None = never shed
    tenant_rate: float | None = None       #: tokens/s per tenant; None = off
    tenant_burst: int = 64        #: token-bucket capacity per tenant
    on_nonfinite: str = "fallback"  #: non-finite predictions: fallback | raise

    def __post_init__(self) -> None:
        if self.cache_slots < 1:
            raise ValueError(f"cache_slots must be >= 1, got {self.cache_slots}")
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.tenant_rate is not None and self.tenant_rate <= 0:
            raise ValueError(f"tenant_rate must be > 0 or None, got {self.tenant_rate}")
        if self.tenant_burst < 1:
            raise ValueError(f"tenant_burst must be >= 1, got {self.tenant_burst}")
        check_on_nonfinite(self.on_nonfinite)


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s, ``burst`` capacity."""

    def __init__(self, rate: float, burst: int, clock=time.monotonic) -> None:
        if rate <= 0 or burst < 1:
            raise ValueError(f"need rate > 0 and burst >= 1, got {rate}/{burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._stamp = clock()
        self._lock = threading.Lock()

    def try_take(self, n: float = 1.0) -> bool:
        with self._lock:
            now = self._clock()
            self._tokens = min(self.burst, self._tokens + (now - self._stamp) * self.rate)
            self._stamp = now
            if self._tokens >= n:
                self._tokens -= n
                return True
            return False


class Ticket:
    """Future-like handle for one submitted request."""

    __slots__ = (
        "request", "status", "value", "error",
        "submitted", "completed", "deadline_at", "_event",
    )

    def __init__(self, request: ServeRequest, submitted: float, deadline_at: float) -> None:
        self.request = request
        self.status = "pending"   # -> ok | shed | throttled | rejected | error
        self.value = None
        self.error: BaseException | None = None
        self.submitted = submitted
        self.completed: float | None = None
        self.deadline_at = deadline_at
        self._event: threading.Event | None = None

    def done(self) -> bool:
        return self.status != "pending"

    def wait(self, timeout: float | None = None) -> bool:
        """Block until completion (any status); True when done."""
        if self.status != "pending":
            return True
        event = self._event
        if event is None:  # pragma: no cover - completed between checks
            return self.status != "pending"
        return event.wait(timeout)

    def result(self, timeout: float | None = None):
        """The response, or raise: ``ServeError`` for shed/throttled/rejected."""
        if not self.wait(timeout):
            raise TimeoutError("request still pending")
        if self.status == "ok":
            return self.value
        if self.status == "error":
            raise self.error
        raise ServeError(f"request {self.request.key} was {self.status}")

    @property
    def latency(self) -> float | None:
        """Submit-to-completion seconds (None while pending)."""
        if self.completed is None:
            return None
        return self.completed - self.submitted

    def _finish(self, status: str, clock, value=None, error=None) -> None:
        self.value = value
        self.error = error
        self.completed = clock()
        self.status = status
        event = self._event
        if event is not None:
            event.set()


# --------------------------------------------------------------------------
# result ring


class _SlotCache:
    """Per-namespace LRU slot ring of evaluated (values, pred) rows.

    Slot reuse bumps a generation counter; guarded views detect recycled
    slots (:class:`StaleResultError`).
    """

    def __init__(self, slots: int, num_samples: int, num_voids: int) -> None:
        self.values = np.zeros((slots, num_samples), dtype=np.float64)
        self.pred = np.zeros((slots, num_voids), dtype=np.float64)
        self.generation = [0] * slots
        self._index: OrderedDict[ModelKey, int] = OrderedDict()
        self._free = list(range(slots - 1, -1, -1))

    def lookup(self, key: ModelKey) -> tuple[int, int] | None:
        slot = self._index.get(key)
        if slot is None:
            return None
        self._index.move_to_end(key)
        return slot, self.generation[slot]

    def store(self, key: ModelKey, values: np.ndarray, pred: np.ndarray) -> tuple[int, int]:
        if self._free:
            slot = self._free.pop()
        else:
            _, slot = self._index.popitem(last=False)
            self.generation[slot] += 1
        self.values[slot][...] = values
        self.pred[slot][...] = pred
        self._index[key] = slot
        return slot, self.generation[slot]

    def check(self, slot: int, generation: int) -> None:
        if self.generation[slot] != generation:
            raise StaleResultError(
                "served result was evicted from the slot ring; re-request it"
            )


# --------------------------------------------------------------------------
# responses


class ServedField:
    """A full-field response streaming from the result ring, lazily.

    Holds guarded zero-copy views of the cached sample values and void
    predictions; :meth:`chunks` streams the predictions as the serial
    path's aligned predict blocks, :meth:`assemble` materializes the full
    grid (sample overlay + void fill — the offline reconstruct's exact
    assembly) only on demand.
    """

    def __init__(self, key, engine: StackEvaluator, cache: _SlotCache,
                 slot: int, generation: int, report) -> None:
        self.key = key
        self.report = report
        self._engine = engine
        self._cache = cache
        self._slot = slot
        self._generation = generation

    @property
    def values(self) -> np.ndarray:
        self._cache.check(self._slot, self._generation)
        return self._cache.values[self._slot]

    @property
    def predictions(self) -> np.ndarray:
        self._cache.check(self._slot, self._generation)
        return self._cache.pred[self._slot]

    def num_chunks(self) -> int:
        return self._engine.num_chunks()

    def chunks(self):
        """Yield ``(start, stop, block)`` aligned predict-block views."""
        pred = self.predictions
        for chunk in range(self._engine.num_chunks()):
            start, stop = self._engine.chunk_bounds(chunk)
            self._cache.check(self._slot, self._generation)
            yield start, stop, pred[start:stop]

    def assemble(self) -> np.ndarray:
        """Materialize the full grid (the one deliberate full-size copy)."""
        return self._engine.assemble(self.values, self.predictions)


class ServedChunk:
    """One aligned predict-block of void predictions, zero-copy."""

    def __init__(self, key, cache: _SlotCache, slot: int, generation: int,
                 chunk: int, start: int, stop: int) -> None:
        self.key = key
        self.chunk = chunk
        self.start = start
        self.stop = stop
        self._cache = cache
        self._slot = slot
        self._generation = generation

    def array(self) -> np.ndarray:
        """The block's predictions (guarded view into the result ring)."""
        self._cache.check(self._slot, self._generation)
        return self._cache.pred[self._slot][self.start : self.stop]


# --------------------------------------------------------------------------
# server


@dataclass
class _Namespace:
    """Lazily-built per-namespace serving state."""

    engine: StackEvaluator
    cache: _SlotCache
    errors: dict = field(default_factory=dict)


class ReconstructionServer:
    """Threaded serving front door over a :class:`ModelRegistry`.

    Create it inside an active :class:`repro.obs.RunRecorder` to capture
    the ``serve.*`` spans and metrics.  Close it (or use it as a context
    manager) to drain the queue and release the evaluators' arenas.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        config: ServerConfig | None = None,
        clock=time.monotonic,
    ) -> None:
        self.registry = registry
        self.config = config if config is not None else ServerConfig()
        self._clock = clock
        self._cond = threading.Condition()
        self._queue: deque[Ticket] = deque()
        self._closed = False
        self._namespaces: dict[str, _Namespace] = {}
        self._buckets: dict[str, TokenBucket] = {}
        # Plain counters for stats(), mutated from both caller threads and
        # the dispatcher — every write goes through _count() under this
        # dedicated lock (never held while calling anything else, so it
        # cannot participate in a lock cycle with _cond).
        self._stats_lock = threading.Lock()
        self._n = {
            "requests": 0, "hits": 0, "misses": 0, "coalesced": 0,
            "shed": 0, "throttled": 0, "rejected": 0, "errors": 0,
            "evals": 0, "eval_members": 0, "batches": 0, "batch_requests": 0,
        }
        self._c_requests = obs_counter("serve.requests")
        self._c_hits = obs_counter("serve.cache.hits")
        self._c_misses = obs_counter("serve.cache.misses")
        self._c_coalesced = obs_counter("serve.coalesced")
        self._c_shed = obs_counter("serve.shed")
        self._c_throttled = obs_counter("serve.throttled")
        self._c_rejected = obs_counter("serve.rejected")
        self._c_errors = obs_counter("serve.errors")
        self._c_evals = obs_counter("serve.evals")
        self._g_depth = obs_gauge("serve.queue.depth")
        self._g_occupancy = obs_gauge("serve.batch.occupancy")
        self._h_batch = obs_histogram("serve.batch.requests")
        self._h_latency = obs_histogram("serve.latency_ms")
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-dispatch", daemon=True
        )
        self._thread.start()

    def _count(self, name: str, amount: int = 1) -> None:
        with self._stats_lock:
            self._n[name] += amount

    # -------------------------------------------------------------- submit
    def submit(self, request: ServeRequest) -> Ticket:
        """Enqueue one request; returns immediately with a :class:`Ticket`.

        Cache hits (and throttle/reject refusals) complete the ticket
        synchronously; misses complete on the dispatcher thread.  A closed
        server raises :class:`ServeError`.
        """
        if self._closed:
            raise ServeError("server is closed")
        now = self._clock()
        deadline = request.deadline
        if deadline is None:
            deadline = self.config.default_deadline
        deadline_at = now + deadline if deadline is not None else float("inf")
        ticket = Ticket(request, submitted=now, deadline_at=deadline_at)
        self._count("requests")
        self._c_requests.inc()
        if self.config.tenant_rate is not None:
            bucket = self._buckets.get(request.tenant)
            if bucket is None:
                bucket = self._buckets.setdefault(
                    request.tenant,
                    TokenBucket(
                        self.config.tenant_rate, self.config.tenant_burst, self._clock
                    ),
                )
            if not bucket.try_take():
                self._count("throttled")
                self._c_throttled.inc()
                ticket._finish("throttled", self._clock)
                return ticket
        with self._cond:
            ns = self._namespaces.get(request.key.namespace_id)
            if ns is not None:
                hit = ns.cache.lookup(request.key)
                if hit is not None:
                    self._count("hits")
                    self._c_hits.inc()
                    self._fulfill(ticket, ns, *hit, report=None)
                    return ticket
            if self._closed:
                # close() may have run since the check above, and a ticket
                # queued after the dispatcher exits would never complete.
                raise ServeError("server is closed")
            if len(self._queue) >= self.config.max_queue:
                self._count("rejected")
                self._c_rejected.inc()
                ticket._finish("rejected", self._clock)
                return ticket
            self._count("misses")
            self._c_misses.inc()
            ticket._event = threading.Event()
            self._queue.append(ticket)
            self._g_depth.set(len(self._queue))
            self._cond.notify()
        return ticket

    def serve(self, request: ServeRequest, timeout: float | None = None):
        """Submit and wait: the blocking convenience wrapper."""
        return self.submit(request).result(timeout)

    # ---------------------------------------------------------- dispatcher
    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if not self._queue:
                    return
                batch = list(self._queue)
                self._queue.clear()
                self._g_depth.set(0)
            self._process(batch)

    def _process(self, batch: list[Ticket]) -> None:
        now = self._clock()
        groups: dict[str, OrderedDict[ModelKey, list[Ticket]]] = {}
        live = 0
        for ticket in batch:
            if ticket.deadline_at < now:
                self._count("shed")
                self._c_shed.inc()
                ticket._finish("shed", self._clock)
                continue
            groups.setdefault(ticket.request.key.namespace_id, OrderedDict()) \
                  .setdefault(ticket.request.key, []).append(ticket)
            live += 1
        if not groups:
            return
        with span("serve.batch", requests=live, namespaces=len(groups)):
            for ns_id, keymap in groups.items():
                self._process_namespace(ns_id, keymap)
        with self._stats_lock:
            self._n["batches"] += 1
            self._n["batch_requests"] += live
            occupancy = self._n["batch_requests"] / self._n["batches"]
        self._h_batch.observe(live)
        self._g_occupancy.set(occupancy)

    def _process_namespace(self, ns_id: str, keymap) -> None:
        first_key = next(iter(keymap))
        try:
            ns = self._namespace(first_key)
        except Exception as exc:
            for tickets in keymap.values():
                for ticket in tickets:
                    self._fail(ticket, exc)
            return
        # Second chance: a result may have landed since these were queued.
        # The tickets were counted as misses at submit and stay misses.
        for key in list(keymap):
            with self._cond:
                hit = ns.cache.lookup(key)
            if hit is not None:
                tickets = keymap.pop(key)
                for ticket in tickets:
                    self._fulfill(ticket, ns, *hit, report=None)
        rows: list[tuple[ModelKey, np.ndarray, np.ndarray]] = []
        for key, tickets in keymap.items():
            try:
                weights, values = self.registry.hot(key)
            except Exception as exc:
                for ticket in tickets:
                    self._fail(ticket, exc)
                continue
            rows.append((key, weights, values))
        if not rows:
            return
        try:
            pred, reports = ns.engine.evaluate(
                [r[1] for r in rows],
                [r[2] for r in rows],
                on_nonfinite=self.config.on_nonfinite,
            )
        except Exception as exc:
            for key, _, _ in rows:
                for ticket in keymap[key]:
                    self._fail(ticket, exc)
            return
        self._count("evals")
        self._count("eval_members", len(rows))
        self._c_evals.inc()
        for member, (key, _, values) in enumerate(rows):
            with self._cond:
                slot, generation = ns.cache.store(key, values, pred[member])
            tickets = keymap[key]
            self._count("coalesced", len(tickets) - 1)
            if len(tickets) > 1:
                self._c_coalesced.inc(len(tickets) - 1)
            for ticket in tickets:
                self._fulfill(ticket, ns, slot, generation, reports[member])

    # ------------------------------------------------------------ plumbing
    def _namespace(self, key: ModelKey) -> _Namespace:
        ns = self._namespaces.get(key.namespace_id)
        if ns is not None:
            return ns
        record = self.registry.namespace(key.dataset, key.fraction)
        engine = StackEvaluator(record.base, record.geometry)
        cache = _SlotCache(
            self.config.cache_slots,
            record.geometry.num_samples,
            record.geometry.num_voids,
        )
        ns = _Namespace(engine=engine, cache=cache)
        # submit() reads this dict under _cond for its cache fast path;
        # publish the bound namespace under the same lock.
        with self._cond:
            self._namespaces[key.namespace_id] = ns
        record_event(
            "serve.namespace.bound", namespace=key.namespace_id,
            voids=record.geometry.num_voids,
        )
        return ns

    def _fulfill(self, ticket: Ticket, ns: _Namespace, slot: int,
                 generation: int, report) -> None:
        request = ticket.request
        if request.kind == "chunk":
            try:
                start, stop = ns.engine.chunk_bounds(request.chunk)
            except IndexError as exc:
                self._fail(ticket, exc)
                return
            value = ServedChunk(
                request.key, ns.cache, slot, generation, request.chunk, start, stop
            )
        else:
            value = ServedField(request.key, ns.engine, ns.cache, slot, generation, report)
        ticket._finish("ok", self._clock, value=value)
        latency = ticket.latency
        if latency is not None:
            self._h_latency.observe(latency * 1e3)

    def _fail(self, ticket: Ticket, exc: BaseException) -> None:
        self._count("errors")
        self._c_errors.inc()
        ticket._finish("error", self._clock, error=exc)

    # ------------------------------------------------------------- teardown
    def stats(self) -> dict:
        """Serving counters plus derived occupancy/hit-rate numbers."""
        out = dict(self._n)
        out["batch_occupancy"] = (
            self._n["batch_requests"] / self._n["batches"] if self._n["batches"] else 0.0
        )
        looked = self._n["hits"] + self._n["misses"]
        out["cache_hit_rate"] = self._n["hits"] / looked if looked else 0.0
        out["registry"] = self.registry.stats()
        out["config"] = {"cache_slots": self.config.cache_slots}
        return out

    def close(self) -> None:
        """Drain queued requests, stop the dispatcher, release the evaluators' arenas."""
        with self._cond:
            if self._closed and not self._thread.is_alive():
                return
            self._closed = True
            self._cond.notify_all()
        self._thread.join()
        for ns in self._namespaces.values():
            ns.engine.close()
        self._namespaces.clear()

    def __enter__(self) -> "ReconstructionServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
