# hot-path
"""Streaming campaign scheduler: pipelined sample -> fine-tune -> reconstruct.

The paper's Fig 11 campaign processes a stream of timesteps; the seed
implementation ran every stage sequentially and rebuilt all per-timestep
machinery (process pools, kd-trees, model copies) from scratch each step.
This module overlaps the stages and keeps everything warm:

* :class:`CampaignScheduler` — a 3-stage software pipeline.  Timesteps
  ``t+1`` and ``t+2`` are *materialized* (simulated/loaded + sampled) on
  two prefetch threads while the caller's thread *processes* (fine-tunes
  on) timestep ``t`` and a single FIFO emit thread *reconstructs*
  timestep ``t-1``.
  Fine-tuning stays strictly sequential — model state flows from timestep
  to timestep — so results are **bit-identical** to the serial schedule;
  only side-effect-free work (I/O, sampling, reconstruction of already
  published weights) overlaps.  :func:`run_journaled` journals it for both
  campaign entry points; :func:`fine_tune_step` is their one fine-tune.
* :class:`WarmReconstructionPool` — persistent reconstruction workers fed
  through one shared-memory slot ring.  Grid geometry and base model
  weights ship **once per campaign** (counter
  ``campaign.shm_bundles_created``); each fine-tuned timestep afterwards
  publishes only a bitwise XOR weight delta (:mod:`repro.perf.weights`)
  and the refreshed sample values.  Workers cache the kd-tree, neighbor
  indices and rebuilt models across timesteps.
* :class:`LocalReconstructionSink` — the same publish/reconstruct
  protocol executed in-process; the degradation target when shared memory
  is unavailable and the reference implementation the pool is tested
  bit-identical against.
* :class:`CampaignGeometry` / :class:`GeometryCache` — sampled-location
  geometry (void indices/points, sample positions, content hash) computed
  once and shared by every stage and worker via lightweight
  :class:`~repro.sampling.base.SampledField` shells.

Bit-identity contract: worker chunk boundaries are aligned to the FCNN
predict block (:attr:`~repro.core.reconstructor.FCNNReconstructor.predict_block`),
so the matmul block shapes — and therefore every float — match the serial
:meth:`~repro.core.reconstructor.FCNNReconstructor.reconstruct` exactly;
weight deltas are XOR (exact); non-finite predictions degrade through the
serial path's :func:`~repro.resilience.health.fill_nonfinite`.
"""

from __future__ import annotations

import hashlib
import threading
import time
import uuid
from collections import Counter, OrderedDict, deque
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass
from queue import Queue

import numpy as np

from repro.obs import counter as obs_counter
from repro.obs import gauge as obs_gauge
from repro.obs import record_event, span
from repro.parallel.chunking import aligned_chunks
from repro.parallel.executor import ParallelExecutor, usable_cpus
from repro.perf import shm as _shm
from repro.perf.shm import SharedArrayBundle
from repro.perf.weights import apply_weight_delta, restore_weights, snapshot_weights, weight_delta
from repro.resilience.health import check_on_nonfinite, fill_nonfinite
from repro.resilience.journal import CampaignJournal, ResumePlan, content_hash
from repro.resilience.report import ReconstructionReport
from repro.resilience.supervise import CampaignInterrupted
from repro.sampling.base import SampledField

__all__ = [
    "CampaignGeometry",
    "GeometryCache",
    "CampaignScheduler",
    "CampaignStats",
    "WarmReconstructionPool",
    "LocalReconstructionSink",
    "make_reconstruction_sink",
    "geometry_key",
]

#: Poll period for stop-aware blocking waits (futures, semaphore).
_POLL_SECONDS = 0.05

#: Timesteps the pipelined scheduler materializes ahead of the one in
#: process.  Each holds a full field and its samples; a wider window would
#: need a memory bound that scales with the field size.
_PREFETCH_WINDOW = 2

#: Emit backpressure: at most this many payloads sit between the end of
#: their ``process`` call and the end of their ``emit``.
_EMIT_DEPTH = 1

#: Slots in a reconstruction sink's ring: the next timestep may publish
#: while ``_EMIT_DEPTH`` earlier ones wait for or run their reconstruct.
_SINK_SLOTS = _EMIT_DEPTH + 1

#: Per-process cap on cached worker states (bundle attachments + models).
_WORKER_STATE_MAX = 4


# --------------------------------------------------------------------------
# geometry


def geometry_key(grid, indices: np.ndarray) -> str:
    """Content hash of a sampled-location set on a grid.

    Two samples with the same grid and the same kept indices share all
    derived geometry (void set, positions, kd-tree) regardless of their
    values or which objects hold them — this key identifies that
    equivalence class for :class:`GeometryCache`.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((grid.dims, grid.spacing, grid.origin)).encode())
    h.update(np.ascontiguousarray(np.asarray(indices, dtype=np.int64)).tobytes())
    return h.hexdigest()


class CampaignGeometry:
    """Frozen sampled-location geometry shared across a campaign's timesteps.

    Holds everything derivable from *where* the samples are (not what
    values they carry): sorted flat indices, sample positions, the void
    index/position arrays.  :meth:`shell` stamps out cheap
    :class:`SampledField` views that share the cached void arrays by
    object identity — which keeps the
    :class:`~repro.core.FeatureExtractor` neighbor-index memo hot across
    timesteps — and :meth:`refresh` overwrites a shell's values in place
    from a new timestep's field.
    """

    def __init__(self, grid, indices: np.ndarray, fraction: float) -> None:
        self.grid = grid
        indices = np.asarray(indices, dtype=np.int64)
        self.indices = np.sort(indices)
        self.fraction = float(fraction)
        self.key = geometry_key(grid, self.indices)
        # A template shell computes (and caches) the void geometry once.
        template = SampledField(
            grid=grid,
            indices=self.indices,
            values=np.zeros(self.indices.size, dtype=np.float64),
            fraction=self.fraction,
        )
        self._void_indices = template.void_indices()
        self._void_points = template.void_points()
        self._points: np.ndarray | None = None

    @classmethod
    def from_sample(cls, sample: SampledField) -> "CampaignGeometry":
        return cls(sample.grid, sample.indices, sample.fraction)

    # ----------------------------------------------------------------- sizes
    @property
    def num_samples(self) -> int:
        return int(self.indices.size)

    @property
    def num_voids(self) -> int:
        return int(self._void_indices.size)

    @property
    def void_indices(self) -> np.ndarray:
        return self._void_indices

    @property
    def void_points(self) -> np.ndarray:
        return self._void_points

    @property
    def points(self) -> np.ndarray:
        """Sample positions ``(M, 3)`` (cached; read-only by convention)."""
        if self._points is None:
            self._points = self.grid.index_to_position(
                self.grid.flat_to_multi(self.indices)
            )
        return self._points

    # ---------------------------------------------------------------- shells
    def shell(self, values: np.ndarray | None = None, timestep: int = 0) -> SampledField:
        """A :class:`SampledField` over this geometry sharing the cached voids.

        The returned shell's ``values`` array is freshly owned (safe to
        :meth:`refresh` in place); its void index/point arrays are the
        geometry's cached objects, so feature-extractor geometry memos keyed
        on array identity survive value updates.  Each pipeline stage that
        mutates values must use its **own** shell — in-place refreshes on a
        shared shell would race between overlapped stages.
        """
        if values is None:
            values = np.zeros(self.num_samples, dtype=np.float64)
        shell = SampledField(
            grid=self.grid,
            indices=self.indices,
            values=np.asarray(values, dtype=np.float64),
            fraction=self.fraction,
            timestep=int(timestep),
        )
        object.__setattr__(shell, "_void_indices", self._void_indices)
        object.__setattr__(shell, "_void_points", self._void_points)
        return shell

    def refresh(self, shell: SampledField, field) -> SampledField:
        """Overwrite ``shell``'s values in place from ``field`` at the frozen locations."""
        np.take(field.flat, shell.indices, out=shell.values)
        return shell


class GeometryCache:
    """Content-addressed LRU cache of :class:`CampaignGeometry` objects.

    Re-running a campaign (or reconstructing several models against the
    same sample locations) reuses the void enumeration, positions and the
    kd-trees hanging off the cached arrays instead of recomputing them per
    timestep.  Eviction is least-recently-used (a hit refreshes the
    entry), and the cache key folds in the caller's compute dtype so
    fast32 and fast64 runs over the same locations can never alias one
    entry.  Counters: ``campaign.geometry.hits`` / ``.misses``; gauges
    ``campaign.geometry.hit_count`` / ``.miss_count``.
    """

    def __init__(self, max_entries: int = 8) -> None:
        self.max_entries = int(max_entries)
        self._entries: OrderedDict[tuple[str, str], CampaignGeometry] = OrderedDict()
        self._hits = 0
        self._misses = 0

    def get(self, sample: SampledField, dtype: str = "float64") -> CampaignGeometry:
        """The cached geometry for ``sample``'s locations (building it on miss).

        ``dtype`` is the caller's compute-dtype policy (for example
        ``reconstructor.dtype_policy.compute``); it is part of the cache
        key, not of the construction, so mixed-precision runs get
        distinct entries instead of aliasing each other's geometry.
        """
        key = (geometry_key(sample.grid, sample.indices), str(dtype))
        cached = self._entries.get(key)
        if cached is not None:
            self._entries.move_to_end(key)
            self._hits += 1
            obs_counter("campaign.geometry.hits").inc()
            obs_gauge("campaign.geometry.hit_count").set(self._hits)
            return cached
        self._misses += 1
        obs_counter("campaign.geometry.misses").inc()
        obs_gauge("campaign.geometry.miss_count").set(self._misses)
        geometry = CampaignGeometry.from_sample(sample)
        while len(self._entries) >= self.max_entries:
            self._entries.popitem(last=False)
        self._entries[key] = geometry
        return geometry

    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses

    def __len__(self) -> int:
        return len(self._entries)


# --------------------------------------------------------------------------
# scheduler


@dataclass
class CampaignStats:
    """Wall-clock accounting of one :meth:`CampaignScheduler.run`."""

    timesteps: int
    pipeline: bool
    wall_seconds: float
    prefetch_seconds: float
    process_seconds: float
    emit_seconds: float

    def occupancy(self, stage: str) -> float:
        """Busy time of ``stage`` over the run's wall time.

        At most 1 for ``process`` and ``emit``; ``prefetch`` sums its two
        threads, so it can reach 2.
        """
        busy = {
            "prefetch": self.prefetch_seconds,
            "process": self.process_seconds,
            "emit": self.emit_seconds,
        }[stage]
        return busy / self.wall_seconds if self.wall_seconds > 0 else 0.0


class _Stop(Exception):
    """Internal: a stage was asked to stop mid-wait."""


_DONE = object()


class CampaignScheduler:
    """Three-stage streaming pipeline over a sequence of timesteps.

    Parameters
    ----------
    materialize:
        ``fn(timestep) -> item`` — produce/load + sample the timestep.
        Runs on a prefetch thread, at most two timesteps ahead of the one
        in ``process``; with two usable CPUs both materialize at once, and
        they are still handed to ``process`` in timestep order.  Must be
        free of order-dependent side effects and safe to call from two
        threads at once (the analytic datasets are pure, each sampler call
        builds its own per-(seed, timestep) RNG, and the journal and fault
        schedule lock their own state).
    process:
        ``fn(timestep, item) -> payload`` — fine-tune / mutate shared
        model state.  Runs on the **calling** thread, strictly in timestep
        order, exactly as in the serial schedule.
    emit:
        Optional ``fn(timestep, payload) -> result`` — reconstruct/score/
        write output.  Runs on a single FIFO emit thread; payloads must be
        self-contained snapshots (published weights + values), never live
        references into state ``process`` keeps mutating.
    pipeline:
        ``False`` runs the three stages inline in one loop — the serial
        reference schedule.  Results are bit-identical either way.  The
        pipelined schedule holds at most ``_EMIT_DEPTH`` processed
        payloads that are not yet emitted, which is what sizes the
        sinks' slot rings (``_SINK_SLOTS``).
    interrupt:
        Optional :class:`repro.resilience.supervise.GracefulInterrupt`
        (or any object with a boolean ``triggered`` attribute).  Checked
        between timesteps: once triggered, the scheduler finishes the
        current timestep, drains every in-flight emit (their journal
        records stay durable), then raises
        :class:`~repro.resilience.supervise.CampaignInterrupted` naming
        the completed prefix and the resume point.  Results are never
        emitted out of order or dropped mid-stage.

    Error handling: an exception in any stage stops the pipeline, waits
    for in-flight stage calls to finish, and re-raises the original
    exception — a failed campaign never silently drops a timestep, and
    every result it *does* return was produced in order.

    Observability: spans ``campaign.prefetch`` / ``campaign.finetune`` /
    ``campaign.reconstruct`` per timestep (each thread's spans form their
    own tree roots — see :class:`repro.obs.SpanTracker`), occupancy
    gauges ``campaign.occupancy.{prefetch,finetune,reconstruct}`` and the
    ``campaign.timesteps`` counter; :attr:`stats` keeps the same numbers.
    ``campaign.prefetch`` spans come from both prefetch threads and the
    prefetch busy time sums them, so its occupancy can reach 2.
    """

    def __init__(
        self,
        materialize,
        process,
        emit=None,
        *,
        pipeline: bool = True,
        name: str = "campaign",
        interrupt=None,
    ) -> None:
        self.materialize = materialize
        self.process = process
        self.emit = emit
        self.pipeline = bool(pipeline)
        self.name = str(name)
        self.interrupt = interrupt
        self.stats: CampaignStats | None = None

    def _interrupted(self) -> bool:
        return self.interrupt is not None and bool(self.interrupt.triggered)

    def _raise_interrupted(self, steps: list[int], done: int) -> None:
        completed = tuple(steps[:done])
        next_timestep = steps[done] if done < len(steps) else None
        record_event(
            "campaign.interrupted",
            completed=done,
            total=len(steps),
            next_timestep=next_timestep,
        )
        raise CampaignInterrupted(
            f"campaign interrupted after {done}/{len(steps)} timesteps",
            completed=completed,
            next_timestep=next_timestep,
        )

    # ------------------------------------------------------------------ run
    def run(self, timesteps) -> list:
        """Process every timestep; returns per-timestep emit results in order."""
        steps = [int(t) for t in timesteps]
        wall0 = time.perf_counter()
        busy = {"prefetch": 0.0, "process": 0.0, "emit": 0.0}
        if not steps:
            results: list = []
        elif self.pipeline:
            results = self._run_pipelined(steps, busy)
        else:
            results = self._run_serial(steps, busy)
        wall = time.perf_counter() - wall0
        self.stats = CampaignStats(
            timesteps=len(steps),
            pipeline=self.pipeline,
            wall_seconds=wall,
            prefetch_seconds=busy["prefetch"],
            process_seconds=busy["process"],
            emit_seconds=busy["emit"],
        )
        obs_counter("campaign.timesteps").inc(len(steps))
        obs_gauge("campaign.occupancy.prefetch").set(self.stats.occupancy("prefetch"))
        obs_gauge("campaign.occupancy.finetune").set(self.stats.occupancy("process"))
        obs_gauge("campaign.occupancy.reconstruct").set(self.stats.occupancy("emit"))
        return results

    def _run_serial(self, steps: list, busy: dict) -> list:
        results = []
        for t in steps:
            if self._interrupted():
                self._raise_interrupted(steps, len(results))
            t0 = time.perf_counter()
            with span("campaign.prefetch", timestep=t):
                item = self.materialize(t)
            t1 = time.perf_counter()
            busy["prefetch"] += t1 - t0
            with span("campaign.finetune", timestep=t):
                payload = self.process(t, item)
            t2 = time.perf_counter()
            busy["process"] += t2 - t1
            with span("campaign.reconstruct", timestep=t):
                results.append(self.emit(t, payload) if self.emit is not None else payload)
            busy["emit"] += time.perf_counter() - t2
        return results

    # -------------------------------------------------------- pipelined mode
    def _run_pipelined(self, steps: list, busy: dict) -> list:
        n = len(steps)
        results: list = [None] * n
        emit_q: Queue = Queue()
        slots = threading.Semaphore(_EMIT_DEPTH)
        stop = threading.Event()
        errors: list[tuple[str, int, BaseException]] = []
        err_lock = threading.Lock()
        # busy and results are written from four threads (two prefetchers,
        # caller, emitter); dict/list item writes are not atomic under
        # free-threaded builds, so every cross-thread write takes this.
        stats_lock = threading.Lock()

        def fail(stage: str, t: int, exc: BaseException) -> None:
            with err_lock:
                errors.append((stage, t, exc))
            stop.set()

        def fetch(t):
            t0 = time.perf_counter()
            with span("campaign.prefetch", timestep=t):
                item = self.materialize(t)
            with stats_lock:
                busy["prefetch"] += time.perf_counter() - t0
            return item

        def emit_loop() -> None:
            while True:
                msg = emit_q.get()
                if msg is _DONE:
                    return
                i, t, payload = msg
                try:
                    t0 = time.perf_counter()
                    with span("campaign.reconstruct", timestep=t):
                        out = self.emit(t, payload) if self.emit is not None else payload
                    with stats_lock:
                        results[i] = out
                        busy["emit"] += time.perf_counter() - t0
                except BaseException as exc:  # noqa: BLE001 - re-raised by run()
                    fail("emit", t, exc)
                    return
                finally:
                    # Release *after* the work: backpressure counts in-flight
                    # emits, not merely dequeued ones.
                    slots.release()

        # The prefetch window: item k is in process while items k+1 and
        # k+2 materialize on up to two threads; futures are taken in item
        # order, so a fast later item never overtakes an earlier one.
        window = ThreadPoolExecutor(
            max_workers=min(_PREFETCH_WINDOW, usable_cpus()),
            thread_name_prefix=f"{self.name}-prefetch",
        )
        ahead: deque[Future] = deque(
            window.submit(fetch, t) for t in steps[:_PREFETCH_WINDOW]
        )
        emitter = threading.Thread(target=emit_loop, name=f"{self.name}-emit", daemon=True)
        emitter.start()
        cut: int | None = None
        t = steps[0]
        try:
            for k in range(n):
                if self._interrupted():
                    # Stop pulling new timesteps; already-queued emits for
                    # processed timesteps still drain below, in order.
                    cut = k
                    break
                t = steps[k]
                fetched = ahead.popleft()
                _stoppable_wait(fetched, stop)
                error = fetched.exception()
                if error is not None:
                    fail("materialize", t, error)
                    break
                item = fetched.result()
                if k + _PREFETCH_WINDOW < n:
                    ahead.append(window.submit(fetch, steps[k + _PREFETCH_WINDOW]))
                t0 = time.perf_counter()
                with span("campaign.finetune", timestep=t):
                    payload = self.process(t, item)
                with stats_lock:
                    busy["process"] += time.perf_counter() - t0
                _stoppable_acquire(slots, stop)
                emit_q.put((k, t, payload))
        except _Stop:
            pass
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            fail("process", t, exc)
        finally:
            # Queued fetches are dropped; running ones finish while the
            # emitter drains, and no prefetch thread outlives run().
            window.shutdown(wait=False, cancel_futures=True)
            emit_q.put(_DONE)
            emitter.join()
            window.shutdown(wait=True)
        if errors:
            stage, t, exc = errors[0]
            exc.args = exc.args if exc.args else (f"campaign {stage} stage failed",)
            record_event("campaign.failed", stage=stage, timestep=t, error=type(exc).__name__)
            raise exc
        if cut is not None:
            self._raise_interrupted(steps, cut)
        return results


def _stoppable_wait(future: Future, stop: threading.Event) -> None:
    """Wait until ``future`` is done; raise :class:`_Stop` once ``stop`` is set.

    ``stop`` is checked first, so a stage failure stops the caller even
    when the next item is already materialized.  ``exception(timeout)``
    raises only on timeout, never the item's own error.
    """
    while not stop.is_set():
        try:
            future.exception(timeout=_POLL_SECONDS)
            return
        except FuturesTimeoutError:
            pass
    raise _Stop


def _stoppable_acquire(sem: threading.Semaphore, stop: threading.Event) -> None:
    while not sem.acquire(timeout=_POLL_SECONDS):
        if stop.is_set():
            raise _Stop


# --------------------------------------------------------------------------
# the journaled timestep loop and its fine-tune step


def fine_tune_step(model, field, train, *, from_base: bool, epochs: int, strategy: str):
    """Fine-tune ``model`` on one timestep: its flat weights and epoch seconds.

    Rolling (``from_base=False``) advances ``model`` in place with
    ``fine_tune`` and snapshots it.  From the base, one
    ``fine_tune_batch([field], [train])`` call trains from the current
    weights and puts them back, so every timestep starts from the same
    base.  Either way the instance's own method runs.
    """
    if from_base:
        (flat,), (history,) = model.fine_tune_batch(
            [field], [train], epochs=epochs, strategy=strategy
        )
        return flat, history.total_seconds
    history = model.fine_tune(field, train, epochs=epochs, strategy=strategy)
    return snapshot_weights(model.model).data, history.total_seconds


def run_journaled(
    timesteps,
    materialize,
    process,
    emit,
    restore,
    *,
    journal=None,
    config: dict,
    from_base: bool,
    resume: bool = False,
    verify=None,
    pipeline: bool = True,
    name: str = "campaign",
    interrupt=None,
    on_stage=None,
) -> tuple[list, CampaignStats]:
    """Run a campaign's timesteps on a :class:`CampaignScheduler`, journaled.

    The one timestep loop behind ``ReconstructionPipeline.run_campaign``
    and ``InSituWriter.run``; returns the emit results of the timesteps it
    runs and the scheduler's stats.  ``on_stage(stage, t)`` runs as each
    stage starts (the chaos harness's injection point).

    Journal protocol.  The timesteps must be distinct (``ValueError``
    names the repeated ones, before anything is opened).  ``journal`` is
    a path, or ``None`` for no journal; its header is ``config``, plus
    ``batched_finetune: true`` for from-base campaigns only, so resuming
    under the other schedule is a config mismatch.  Per timestep:
    ``materialize(t) -> (item, records)`` journals ``records()``
    (``{"sampled": payload}``); ``process(t, item) -> (payload, flat)``
    saves ``flat``, the fine-tuned weights or ``None`` when nothing
    trains, as the sidecar ``state_t*.npz`` and records
    ``fine-tuned{weights_sha}``; ``emit(t, payload) -> (result, records)``
    journals its records, ending with the terminal ``emitted``.
    ``records`` is called only with a journal, so hashes cost nothing
    without one.  A journaled run plans in a ``campaign.resume.plan`` span
    and records a ``campaign.resume.planned`` event; with ``resume`` the
    contiguous prefix with durable ``emitted`` records (that pass
    ``verify(t, payload)``) is skipped and counted in
    ``campaign.resume.skipped``.  ``restore(plan, weights)`` runs once
    before the first timestep, with an empty plan when nothing is skipped;
    ``weights()`` loads the last skipped sidecar, and is ``None`` when
    nothing is skipped or from the base, where nothing rolls forward.  An
    ``interrupt`` leaves a resume manifest next to the journal before
    :class:`~repro.resilience.supervise.CampaignInterrupted` propagates,
    and the journal is closed on every exit.
    """
    steps = [int(t) for t in timesteps]
    repeated = sorted(t for t, n in Counter(steps).items() if n > 1)
    if repeated:
        raise ValueError(f"a campaign's timesteps must be distinct; repeated: {repeated}")
    wal = None
    if journal is not None:
        header = {**config, "batched_finetune": True} if from_base else config
        wal = CampaignJournal(journal, config=header, resume=resume)
    try:
        plan = ResumePlan((), tuple(steps))
        if wal is not None:
            with span("campaign.resume.plan"):
                found = wal.plan(steps, verify if resume else None)
            plan = found if resume else plan
            if plan.completed:
                obs_counter("campaign.resume.skipped").inc(len(plan.completed))
            record_event(
                "campaign.resume.planned", resume=bool(resume),
                skipped=len(plan.completed), remaining=len(plan.remaining),
            )
        last = plan.completed[-1] if plan.completed else None
        restore(plan, None if last is None or from_base else lambda: wal.load_state(last))

        def journaled(stage: str, fn):
            def run(t: int, *args):
                if on_stage is not None:
                    on_stage(stage, t)
                value, records = fn(t, *args)
                if wal is not None:
                    for done, payload in records().items():
                        wal.record(t, done, **payload)
                return value

            return run

        def with_sidecar(t: int, item):
            payload, flat = process(t, item)
            if flat is None:
                return payload, lambda: {}
            if wal is not None:
                wal.save_state(t, flat)
            return payload, lambda: {"fine-tuned": {"weights_sha": content_hash(flat)}}

        scheduler = CampaignScheduler(
            journaled("materialize", materialize), journaled("process", with_sidecar),
            journaled("emit", emit), pipeline=pipeline, name=name, interrupt=interrupt,
        )
        try:
            return scheduler.run(plan.remaining), scheduler.stats
        except CampaignInterrupted as exc:
            if wal is not None:
                done = list(plan.completed) + list(exc.completed)
                wal.write_manifest(
                    reason=f"interrupted (signal {getattr(interrupt, 'signum', None)})",
                    completed=done,
                    remaining=steps[len(done):],
                )
            raise
    finally:
        if wal is not None:
            wal.close()


# --------------------------------------------------------------------------
# reconstruction sinks


class LocalReconstructionSink:
    """In-process publish/reconstruct sink — the pool's serial twin.

    Implements the same protocol as :class:`WarmReconstructionPool`
    (:meth:`bind` once, then :meth:`publish` a timestep's values + weight
    vectors and :meth:`reconstruct` it later) without processes or shared
    memory: published state is copied into a local slot ring and
    reconstruction runs on per-tag model clones through the ordinary
    :meth:`FCNNReconstructor.reconstruct` path.  It is the reference the
    pool is verified bit-identical against, and the automatic fallback
    when shared memory is unavailable.
    """

    def __init__(self) -> None:
        self.geometry: CampaignGeometry | None = None
        self._models: dict = {}
        self._values: np.ndarray | None = None
        self._flats: list[dict[str, np.ndarray]] = []
        self._timesteps: list[int | None] = []
        self._shells: dict = {}
        self._seq = 0

    @property
    def tags(self) -> tuple[str, ...]:
        return tuple(self._models)

    def bind(self, geometry: CampaignGeometry, models: dict) -> None:
        """Install the campaign geometry and clone each tagged model once."""
        self.geometry = geometry
        self._models = {tag: model.clone() for tag, model in models.items()}
        self._values = np.zeros((_SINK_SLOTS, geometry.num_samples), dtype=np.float64)
        self._flats = [{} for _ in range(_SINK_SLOTS)]
        self._timesteps = [None] * _SINK_SLOTS
        self._shells = {tag: geometry.shell() for tag in self._models}
        self._seq = 0

    def publish(self, timestep: int, values: np.ndarray, weights: dict) -> int:
        """Copy one timestep's sample values + per-tag flat weights into a slot."""
        if self.geometry is None:
            raise RuntimeError("sink is not bound; call bind() first")
        if set(weights) != set(self._models):
            raise ValueError(
                f"publish needs weights for every bound tag {sorted(self._models)}, "
                f"got {sorted(weights)}"
            )
        slot = self._seq % _SINK_SLOTS
        self._seq += 1
        self._values[slot][...] = values
        self._flats[slot] = {
            tag: np.array(flat, dtype=np.float64, copy=True) for tag, flat in weights.items()
        }
        self._timesteps[slot] = int(timestep)
        return slot

    def reconstruct(
        self, slot: int, tag: str, on_nonfinite: str = "fallback"
    ) -> tuple[np.ndarray, ReconstructionReport]:
        """Reconstruct the full field for one published slot and model tag."""
        model = self._models[tag]
        restore_weights(model.model, self._flats[slot][tag])
        shell = self._shells[tag]
        shell.values[...] = self._values[slot]
        return model.reconstruct(shell, on_nonfinite=on_nonfinite, return_report=True)

    def close(self) -> None:
        self._models = {}
        self._shells = {}
        self.geometry = None

    def __enter__(self) -> "LocalReconstructionSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class WarmReconstructionPool:
    """Persistent worker pool reconstructing campaign timesteps via shared memory.

    One :class:`~repro.perf.shm.SharedArrayBundle` per campaign carries

    ========================  =====================================================
    ``indices``               ``(M,)`` sampled flat indices — shipped once
    ``values``                ``(slots, M)`` per-slot sample values
    ``weights_base``          ``(T, W)`` base flat weights per tag — shipped once
    ``weights_delta``         ``(slots, T, W)`` XOR deltas against the base
    ``out``                   ``(slots, T, K)`` per-slot void predictions
    ========================  =====================================================

    so after :meth:`bind` no task payload ever contains an array — workers
    receive ``(campaign id, epoch, slot, tag, chunk bounds)`` plus a small
    static init block, attach the segments once, and keep the rebuilt
    models, kd-tree and per-chunk neighbor indices warm in module state
    across every timestep (counter ``campaign.shm_bundles_created`` proves
    geometry + weights ship at most once per campaign).

    The executor is a ``persistent=True``
    :class:`~repro.parallel.ParallelExecutor`: crashed workers get the
    PR 2 recovery semantics (BrokenProcessPool -> serial in-process
    re-run of the unresolved chunks, then pool recycle), so a killed
    worker degrades a timestep gracefully instead of dropping it.

    Slot discipline: :meth:`publish` assigns ``_SINK_SLOTS`` slots
    round-robin; a slot's contents stay valid until that many further
    publishes, which a :class:`CampaignScheduler` never outruns.
    """

    def __init__(
        self,
        executor: ParallelExecutor | None = None,
        max_workers: int | None = None,
        num_chunks: int | None = None,
        worker_fn=None,
    ) -> None:
        self._owns_executor = executor is None
        self.executor = executor if executor is not None else ParallelExecutor(
            max_workers=max_workers, retries=1, persistent=True
        )
        self.num_chunks = num_chunks
        #: Task function run in workers; overridable for fault injection.
        self.worker_fn = worker_fn if worker_fn is not None else _campaign_worker
        self.campaign_id = uuid.uuid4().hex
        self.epoch = -1
        self.geometry: CampaignGeometry | None = None
        self._bundle: SharedArrayBundle | None = None
        self._tags: tuple[str, ...] = ()
        self._base: dict[str, np.ndarray] = {}
        self._chunks: dict[str, list[tuple[int, int]]] = {}
        self._init: dict = {}
        self._timesteps: list[int | None] = []
        self._seq = 0

    @property
    def tags(self) -> tuple[str, ...]:
        return self._tags

    # ----------------------------------------------------------------- bind
    def bind(self, geometry: CampaignGeometry, models: dict) -> None:
        """Ship geometry + base weights to shared memory (once per campaign).

        ``models`` maps tag -> trained :class:`FCNNReconstructor`.  Raises
        ``OSError`` when shared memory is unavailable — callers degrade to
        :class:`LocalReconstructionSink` (see
        :func:`make_reconstruction_sink`).
        """
        self.unbind()
        tags = tuple(models)
        if not tags:
            raise ValueError("bind needs at least one tagged model")
        metas = {}
        base = {}
        for tag, model in models.items():
            network, normalizer = model._require_trained()
            flat = snapshot_weights(network).data
            base[tag] = np.array(flat, dtype=np.float64, copy=True)
            metas[tag] = {
                "ctor": model.settings(),
                "spec": network.spec(),
                "normalizer": normalizer.as_dict(),
                "num_weights": int(flat.size),
            }
            self._chunks[tag] = aligned_chunks(
                geometry.num_voids, self._target_chunks(), model.predict_block
            )
        width = max(meta["num_weights"] for meta in metas.values())
        base_matrix = np.zeros((len(tags), width), dtype=np.float64)
        for ti, tag in enumerate(tags):
            base_matrix[ti, : base[tag].size] = base[tag]
        self._bundle = SharedArrayBundle.create(
            {
                "indices": geometry.indices,
                "values": np.zeros((_SINK_SLOTS, geometry.num_samples), dtype=np.float64),
                "weights_base": base_matrix,
                "weights_delta": np.zeros((_SINK_SLOTS, len(tags), width), dtype=np.uint64),
                "out": np.zeros((_SINK_SLOTS, len(tags), geometry.num_voids), dtype=np.float64),
            }
        )
        obs_counter("campaign.shm_bundles_created").inc()
        self.epoch += 1
        self.geometry = geometry
        self._tags = tags
        self._base = base
        self._timesteps = [None] * _SINK_SLOTS
        self._seq = 0
        self._init = {
            "specs": self._bundle.specs,
            "grid": geometry.grid,
            "fraction": geometry.fraction,
            "tags": tags,
            "models": metas,
        }

    def _target_chunks(self) -> int:
        if self.num_chunks is not None:
            return int(self.num_chunks)
        return max(1, self.executor.max_workers)

    # -------------------------------------------------------------- publish
    def publish(self, timestep: int, values: np.ndarray, weights: dict) -> int:
        """Write one timestep's sample values + per-tag weight deltas to a slot.

        ``weights`` maps every bound tag to its current flat weight vector
        (:func:`repro.perf.weights.snapshot_weights` ``.data``); only the
        XOR delta against the base crosses into shared memory.
        """
        if self._bundle is None:
            raise RuntimeError("pool is not bound; call bind() first")
        if set(weights) != set(self._tags):
            raise ValueError(
                f"publish needs weights for every bound tag {sorted(self._tags)}, "
                f"got {sorted(weights)}"
            )
        slot = self._seq % _SINK_SLOTS
        self._seq += 1
        self._bundle.view("values")[slot][...] = values
        delta_view = self._bundle.view("weights_delta")
        for ti, tag in enumerate(self._tags):
            flat = np.asarray(weights[tag], dtype=np.float64)
            delta_view[slot, ti, : flat.size] = weight_delta(self._base[tag], flat)
        self._timesteps[slot] = int(timestep)
        return slot

    # ---------------------------------------------------------- reconstruct
    def reconstruct(
        self, slot: int, tag: str, on_nonfinite: str = "fallback"
    ) -> tuple[np.ndarray, ReconstructionReport]:
        """Reconstruct the full field for one published slot and model tag.

        Chunks fan out to the warm workers; predictions land in the shared
        ``out`` slot and are assembled (sample overlay + void fill + the
        serial path's non-finite fallback) in the parent.  Raises the first
        chunk failure only after the executor's retry + serial-fallback
        recovery is exhausted.
        """
        if self._bundle is None or self.geometry is None:
            raise RuntimeError("pool is not bound; call bind() first")
        check_on_nonfinite(on_nonfinite)
        geometry = self.geometry
        ti = self._tags.index(tag)
        chunks = self._chunks[tag]
        payloads = [
            {
                "campaign": self.campaign_id,
                "epoch": self.epoch,
                "init": self._init,
                "slot": int(slot),
                "tag": tag,
                "tag_index": ti,
                "start": start,
                "stop": stop,
            }
            for start, stop in chunks
        ]
        report = ReconstructionReport(
            total_points=int(geometry.grid.num_points), fallback_method="nearest"
        )
        with span(
            "campaign.pool.reconstruct",
            tag=tag,
            chunks=len(payloads),
            timestep=self._timesteps[slot],
        ):
            outcomes = self.executor.map_outcomes(self.worker_fn, payloads)
            obs_counter("campaign.pool.chunks").inc(len(payloads))
            for outcome in outcomes:
                if outcome.recovered is not None:
                    obs_counter("campaign.pool.recovered").inc()
                    record_event(
                        "campaign.chunk_recovered",
                        tag=tag,
                        chunk=outcome.index,
                        how=outcome.recovered,
                    )
                if not outcome.ok:
                    if outcome.exception is not None:
                        raise outcome.exception
                    raise RuntimeError(
                        f"campaign chunk {outcome.index} ({tag}) failed: {outcome.error}"
                    )
            values = self._bundle.view("values")[slot]
            pred = fill_nonfinite(
                np.array(self._bundle.view("out")[slot, ti], copy=True),
                geometry, values, geometry.void_points, report, on_nonfinite,
            )
            out = geometry.grid.empty_field().ravel()
            out[geometry.indices] = values
            out[geometry.void_indices] = pred
            return out.reshape(geometry.grid.dims), report

    # -------------------------------------------------------------- teardown
    def unbind(self) -> None:
        """Release the current campaign's shared segments (keeps the executor)."""
        bundle, self._bundle = self._bundle, None
        if bundle is not None:
            bundle.close()
        # Parent-side worker state (from serial in-process fallbacks) for the
        # released epoch is now stale — drop it.
        _evict_worker_state(self.campaign_id)
        self.geometry = None
        self._tags = ()
        self._base = {}
        self._chunks = {}
        self._init = {}

    def close(self) -> None:
        """Unbind and shut down the owned executor (idempotent)."""
        self.unbind()
        if self._owns_executor:
            self.executor.close()

    def __enter__(self) -> "WarmReconstructionPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def make_reconstruction_sink(
    geometry: CampaignGeometry,
    models: dict,
    *,
    executor: ParallelExecutor | None = None,
    max_workers: int | None = None,
    num_chunks: int | None = None,
    warm_pool: bool = True,
):
    """Bind the best available reconstruction sink for this environment.

    Tries a :class:`WarmReconstructionPool` (shared memory + persistent
    workers); environments without usable shared memory — or callers
    passing ``warm_pool=False`` — get a :class:`LocalReconstructionSink`.
    Both speak the same publish/reconstruct protocol and produce
    bit-identical fields.
    """
    if warm_pool:
        pool = WarmReconstructionPool(
            executor=executor, max_workers=max_workers, num_chunks=num_chunks
        )
        try:
            pool.bind(geometry, models)
            return pool
        except OSError:
            pool.close()
            record_event("campaign.pool_unavailable", fallback="local")
        except BaseException:
            # bind() failures beyond "no usable shm" are real errors, but
            # the half-bound pool still owns segments and workers — release
            # them before propagating or they outlive the test/run.
            pool.close()
            raise
    sink = LocalReconstructionSink()
    sink.bind(geometry, models)
    return sink


# --------------------------------------------------------------------------
# worker side


class _WorkerState:
    """Per-process warm state for one (campaign, epoch): attachments + models."""

    def __init__(self, payload: dict) -> None:
        from scipy.spatial import cKDTree

        from repro.core.normalization import Normalizer
        from repro.core.reconstructor import FCNNReconstructor
        from repro.nn.network import from_spec

        init = payload["init"]
        self.handles: list = []
        self.arrays: dict[str, np.ndarray] = {}
        try:
            for name, spec in init["specs"].items():
                shm = _shm._attach(spec.shm_name)
                self.handles.append(shm)
                self.arrays[name] = np.ndarray(
                    spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf
                )
        except BaseException:
            # A failure between attach and first read must not leak the
            # already-opened mappings: drop the views, close every handle.
            self.arrays.clear()
            for shm in self.handles:
                try:
                    shm.close()
                except BufferError:  # pragma: no cover - view still alive
                    pass
            self.handles.clear()
            raise
        indices = np.array(self.arrays["indices"], dtype=np.int64, copy=True)
        self.geometry = CampaignGeometry(init["grid"], indices, init["fraction"])
        self.sample = self.geometry.shell()
        self.tree = cKDTree(self.geometry.points)
        self.models: dict[str, FCNNReconstructor] = {}
        self.num_weights: dict[str, int] = {}
        self.scratch: dict[str, np.ndarray] = {}
        for tag in init["tags"]:
            meta = init["models"][tag]
            recon = FCNNReconstructor(**meta["ctor"])
            recon.model = from_spec(meta["spec"])
            recon.dtype_policy.cast_model(recon.model)
            recon.normalizer = Normalizer.from_dict(meta["normalizer"])
            self.models[tag] = recon
            self.num_weights[tag] = int(meta["num_weights"])
            self.scratch[tag] = np.empty(meta["num_weights"], dtype=np.float64)
        self._slabs: dict = {}

    def slab(self, start: int, stop: int, num_neighbors: int, workers: int):
        """One chunk's cached neighbor memo: query positions, indices, columns.

        Neighbor indices come from the same query as
        :meth:`FeatureExtractor._neighbor_indices` over a kd-tree of the
        same points, so priming the extractor memo with them is
        bit-identical to letting it query; the chunk's coordinate columns
        are built into the memo on first use.
        """
        key = (start, stop, num_neighbors)
        cached = self._slabs.get(key)
        if cached is not None:
            return cached
        from repro.core.features import NeighborMemo, nearest_samples

        points = self.geometry.void_points[start:stop]
        idx = nearest_samples(self.tree, points, num_neighbors, workers)
        memo = self._slabs[key] = NeighborMemo(self.sample, points, idx)
        return memo

    def close(self) -> None:
        self.arrays.clear()
        self._slabs.clear()
        for shm in self.handles:
            try:
                shm.close()
            except BufferError:  # pragma: no cover - view still referenced
                pass
        self.handles = []


#: (campaign id, epoch) -> warm state.  Module-level so pooled workers (and
#: the in-process serial fallback) keep attachments/models across tasks.
_WORKER_STATE: dict[tuple[str, int], _WorkerState] = {}


def _evict_worker_state(campaign: str, keep_epoch: int | None = None) -> None:
    for key in [k for k in _WORKER_STATE if k[0] == campaign and k[1] != keep_epoch]:
        _WORKER_STATE.pop(key).close()


def _worker_state(payload: dict) -> _WorkerState:
    key = (payload["campaign"], payload["epoch"])
    state = _WORKER_STATE.get(key)
    if state is not None:
        return state
    # A new epoch of a campaign invalidates its older attachments.
    _evict_worker_state(payload["campaign"], keep_epoch=payload["epoch"])
    while len(_WORKER_STATE) >= _WORKER_STATE_MAX:
        _WORKER_STATE.pop(next(iter(_WORKER_STATE))).close()
    state = _WorkerState(payload)
    _WORKER_STATE[key] = state
    return state


def _campaign_worker(payload: dict) -> int:
    """Reconstruct one (slot, tag, chunk) into the shared ``out`` segment.

    Runs in pool workers (or in-process on the executor's serial fallback).
    Decodes the slot's XOR weight delta into the warm model, refreshes the
    warm sample shell's values in place, primes the feature extractor's
    neighbor memo (indices and coordinate columns) from the per-chunk cache
    and predicts the chunk — every step bit-identical to the serial predict
    path.
    """
    state = _worker_state(payload)
    slot = int(payload["slot"])
    tag = payload["tag"]
    ti = int(payload["tag_index"])
    start, stop = int(payload["start"]), int(payload["stop"])
    recon = state.models[tag]
    w = state.num_weights[tag]

    flat = apply_weight_delta(
        state.arrays["weights_base"][ti, :w],
        state.arrays["weights_delta"][slot, ti, :w],
        out=state.scratch[tag],
    )
    restore_weights(recon.model, flat)
    state.sample.values[...] = state.arrays["values"][slot]

    extractor = recon.extractor
    memo = extractor._memo = state.slab(start, stop, extractor.num_neighbors, extractor.workers)
    state.arrays["out"][slot, ti, start:stop] = recon.predict_values(
        state.sample, memo.query, state.geometry.grid
    )
    return stop - start
