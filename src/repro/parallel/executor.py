"""Fault-tolerant process-pool map with per-task outcomes.

Workers receive picklable task payloads; with ``max_workers=1`` (or on
platforms where process creation fails) execution degrades gracefully to an
in-process loop, so every parallel code path is also exercised in serial
test environments.

Hardening (each recovery path is proven by fault injection in
``tests/test_resilience_executor.py``):

* tasks are submitted individually — one failing payload no longer takes
  the whole batch down, and side-effecting completed work is never re-run;
* per-task result timeout (``timeout=``) and exponential-backoff retry
  (``retries=``, ``backoff=``);
* ``BrokenProcessPool`` recovery: results collected before the crash are
  kept, and only the unresolved payloads are re-run serially in-process;
* :meth:`ParallelExecutor.map_outcomes` reports a structured
  :class:`TaskOutcome` per payload instead of raising.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any

from repro.obs import counter, record_event

__all__ = ["ParallelExecutor", "TaskOutcome", "usable_cpus"]


def usable_cpus() -> int:
    """CPUs this process may run on.

    The affinity set where the platform has one (``taskset``, cgroup
    cpusets), else ``os.cpu_count()``.  ``os.cpu_count()`` alone counts
    the machine, so under ``taskset -c 0`` on a two-core box it would
    size every default pool for two CPUs while the process has one.
    """
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return os.cpu_count() or 1


@dataclass
class TaskOutcome:
    """What happened to one payload across all execution attempts."""

    index: int
    status: str = "pending"          # "pending" -> "ok" | "failed"
    result: Any = None
    error: str | None = None         # human-readable failure description
    exception: BaseException | None = None
    attempts: int = 0
    duration: float = 0.0            # seconds spent waiting on/running the task
    recovered: str | None = None     # "retry" | "serial-fallback" | None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def _succeed(self, result: Any, recovered: str | None) -> None:
        self.status = "ok"
        self.result = result
        self.error = None
        self.exception = None
        self.recovered = recovered

    def _note_failure(self, exc: BaseException, error: str | None = None) -> None:
        self.error = error if error is not None else f"{type(exc).__name__}: {exc}"
        self.exception = exc


class ParallelExecutor:
    """Map a function over payloads using processes when beneficial.

    Parameters
    ----------
    max_workers:
        Process count; ``None`` uses :func:`usable_cpus`.  With one worker
        (or one payload) no pool is created.
    timeout:
        Seconds to wait for each task's result before treating it as
        failed (``None`` waits forever).  Only enforceable on the pool
        path — the serial path cannot interrupt a running call.
    retries:
        Extra attempts per failed task (0 keeps the fail-fast behavior).
    backoff:
        Base delay of the exponential backoff between attempts; after a
        failed attempt ``k`` (1-based) that will be retried, the executor
        waits ``backoff * 2**(k-1)`` seconds.  No delay is ever slept
        after the *final* failed attempt — the caller gets the failure
        immediately.  (Tests inject a fake clock via the ``_sleep``
        attribute.)
    persistent:
        Keep the process pool alive across :meth:`map_outcomes` calls
        instead of creating and tearing one down per call.  Campaign-style
        workloads (many reconstructions against the same warm workers —
        see :mod:`repro.perf.campaign`) pay pool startup once per run
        rather than once per timestep, and worker-side module caches stay
        hot.

        Lifecycle: the pool is created lazily on first use at the full
        ``max_workers`` width, survives healthy calls, and is recycled
        (shut down and lazily recreated) after a ``BrokenProcessPool`` or
        a task timeout — a crashed or hung worker never poisons the next
        call, and the in-flight call still gets the PR 2 recovery
        semantics (collected results kept, unresolved payloads re-run
        serially, ``recovered="serial-fallback"``).  The owner must call
        :meth:`close` (or use the executor as a context manager) when the
        campaign ends; a non-persistent executor needs no cleanup.
    max_respawns:
        Budget of persistent-pool replacements (automatic recycling after
        an unhealthy call plus supervisor-driven :meth:`recycle` calls).
        ``None`` (default) is unbounded — the PR 5 behavior.  Once the
        budget is exhausted no further pool is created and the executor
        degrades permanently to the in-process serial path: a host that
        keeps killing workers stops being asked for new ones.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        timeout: float | None = None,
        retries: int = 0,
        backoff: float = 0.5,
        persistent: bool = False,
        max_respawns: int | None = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {backoff}")
        if max_respawns is not None and max_respawns < 0:
            raise ValueError(f"max_respawns must be >= 0, got {max_respawns}")
        self.max_workers = max_workers if max_workers is not None else usable_cpus()
        self.timeout = timeout
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.persistent = bool(persistent)
        self.max_respawns = max_respawns
        self.respawns = 0
        # Test seam: the backoff clock.  Injected by the fake-clock tests
        # proving no delay is slept after the final failed attempt.
        self._sleep = time.sleep
        self._pool: ProcessPoolExecutor | None = None
        # Guards the check-then-create/swap of self._pool: a campaign's
        # emit thread closing the executor must not race another thread's
        # lazy pool creation (the loser's pool would leak its workers).
        self._pool_lock = threading.Lock()

    # ------------------------------------------------------- pool lifecycle
    def _acquire_pool(self, workers: int) -> tuple[ProcessPoolExecutor, bool]:
        """``(pool, pooled)`` — ``pooled`` marks a kept-alive persistent pool."""
        if not self.persistent:
            return ProcessPoolExecutor(max_workers=workers), False
        with self._pool_lock:
            if self._pool is None:
                if self._respawn_budget_spent():
                    # Budget exhausted: refuse a new pool; _pool_phase
                    # catches this and degrades to the serial path.
                    raise RuntimeError(
                        f"worker respawn budget exhausted "
                        f"({self.respawns}/{self.max_respawns}); running serially"
                    )
                # Full width regardless of this call's payload count, so later
                # (possibly larger) batches reuse the same warm pool.
                self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
            return self._pool, True

    def _respawn_budget_spent(self) -> bool:
        return self.max_respawns is not None and self.respawns > self.max_respawns

    def _count_respawn(self, reason: str) -> None:
        """One persistent pool was discarded; a replacement costs budget."""
        self.respawns += 1
        counter("executor.respawns").inc()
        record_event(
            "executor.respawn",
            reason=reason,
            respawns=self.respawns,
            budget=self.max_respawns,
        )

    def _release_pool(self, pool: ProcessPoolExecutor, pooled: bool, unhealthy: bool) -> None:
        """Tear down per-call pools; keep a healthy persistent pool warm."""
        if pooled:
            if not unhealthy:
                return  # stays warm for the next map_outcomes call
            with self._pool_lock:
                if self._pool is pool:
                    self._pool = None  # recycle: recreate lazily on next use
                    self._count_respawn("unhealthy")
        # wait=False so a hung (timed-out) worker cannot block shutdown.
        pool.shutdown(wait=not unhealthy and self.timeout is None, cancel_futures=True)

    def recycle(self, reason: str = "supervisor") -> bool:
        """Replace the persistent pool: shut it down so the next call
        creates a fresh one.

        This is the supervisor's stall remedy (a hung worker is replaced
        wholesale) and counts against ``max_respawns``.  Returns ``True``
        when a live pool was actually discarded.  No-op for
        non-persistent executors.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
            if pool is not None:
                self._count_respawn(reason)
        if pool is None:
            return False
        # A recycle usually means a wedged worker: don't block on it.
        pool.shutdown(wait=False, cancel_futures=True)
        return True

    def close(self) -> None:
        """Shut down the persistent pool (idempotent; no-op when not persistent).

        Thread-safe: concurrent ``close()`` calls shut the pool down once,
        and a close racing :meth:`_acquire_pool` can never strand a
        freshly created pool.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------ API
    def map(self, fn, payloads: list) -> list:
        """Ordered results of ``fn`` applied to each payload.

        Raises the first (by payload order) unrecovered task failure after
        all attempts; completed work is never re-executed on the way.
        """
        outcomes = self.map_outcomes(fn, payloads)
        for outcome in outcomes:
            if not outcome.ok:
                if outcome.exception is not None:
                    raise outcome.exception
                raise RuntimeError(
                    f"task {outcome.index} failed: {outcome.error or 'unknown error'}"
                )
        return [outcome.result for outcome in outcomes]

    def map_outcomes(self, fn, payloads: list) -> list[TaskOutcome]:
        """Run every payload and report per-task outcomes (never raises
        for task failures).

        Payloads run in the pool when ``max_workers > 1``; tasks left
        unresolved by a broken or unavailable pool are re-run serially
        in-process (``recovered="serial-fallback"``), keeping all results
        already collected.
        """
        payloads = list(payloads)
        outcomes = [TaskOutcome(index=i) for i in range(len(payloads))]
        if not payloads:
            return outcomes
        pending = list(range(len(payloads)))
        workers = min(self.max_workers, len(payloads))
        pool_attempted = False
        if workers > 1:
            pool_attempted, pending = self._pool_phase(fn, payloads, outcomes, pending, workers)
        self._serial_phase(fn, payloads, outcomes, pending, pool_attempted)
        return outcomes

    # ------------------------------------------------------------ pool phase
    def _pool_phase(
        self,
        fn,
        payloads: list,
        outcomes: list[TaskOutcome],
        pending: list[int],
        workers: int,
    ) -> tuple[bool, list[int]]:
        """Run pending payloads in a process pool with retries.

        Returns ``(pool_ran, still_pending)`` — ``still_pending`` is
        non-empty only when the pool broke (or never started), leaving
        those payloads for serial recovery.  With a healthy pool, failures
        are final and marked ``"failed"`` here.
        """
        try:
            pool, pooled = self._acquire_pool(workers)
        except (OSError, RuntimeError, PermissionError):
            # Sandboxed/restricted environments: degrade to serial.
            return False, pending
        broken = False
        had_timeout = False
        try:
            for attempt in range(1, self.retries + 2):
                if not pending or broken:
                    break
                try:
                    futures = [(i, pool.submit(fn, payloads[i])) for i in pending]
                except (BrokenProcessPool, RuntimeError):
                    broken = True
                    break
                failed: list[int] = []
                for i, future in futures:
                    outcome = outcomes[i]
                    t0 = time.perf_counter()
                    try:
                        result = future.result(timeout=None if broken else self.timeout)
                    except FuturesTimeoutError:
                        future.cancel()
                        had_timeout = True
                        outcome.attempts += 1
                        outcome.duration += time.perf_counter() - t0
                        exc = TimeoutError(
                            f"task {i} timed out after {self.timeout}s"
                        )
                        outcome._note_failure(exc, f"timed out after {self.timeout}s")
                        failed.append(i)
                    except BrokenProcessPool as exc:
                        broken = True
                        outcome.attempts += 1
                        outcome.duration += time.perf_counter() - t0
                        outcome._note_failure(exc, "worker process died (BrokenProcessPool)")
                        failed.append(i)
                    except Exception as exc:
                        outcome.attempts += 1
                        outcome.duration += time.perf_counter() - t0
                        outcome._note_failure(exc)
                        failed.append(i)
                    else:
                        outcome.attempts += 1
                        outcome.duration += time.perf_counter() - t0
                        outcome._succeed(result, "retry" if outcome.attempts > 1 else None)
                pending = failed
                # Back off only when another attempt will actually run:
                # never sleep after the final failed attempt.
                if pending and not broken and attempt <= self.retries:
                    self._sleep(self.backoff * 2 ** (attempt - 1))
        finally:
            self._release_pool(pool, pooled, unhealthy=broken or had_timeout)
        if broken:
            return True, pending
        for i in pending:
            outcomes[i].status = "failed"
        return True, []

    # ---------------------------------------------------------- serial phase
    def _serial_phase(
        self,
        fn,
        payloads: list,
        outcomes: list[TaskOutcome],
        pending: list[int],
        pool_attempted: bool,
    ) -> None:
        """In-process execution with retries, for serial mode and pool recovery."""
        for i in pending:
            outcome = outcomes[i]
            recovered = "serial-fallback" if pool_attempted else None
            for attempt in range(1, self.retries + 2):
                outcome.attempts += 1
                t0 = time.perf_counter()
                try:
                    result = fn(payloads[i])
                except Exception as exc:
                    outcome.duration += time.perf_counter() - t0
                    outcome._note_failure(exc)
                    # Back off before the next attempt only; the final
                    # failure returns to the caller without sleeping.
                    if attempt <= self.retries:
                        self._sleep(self.backoff * 2 ** (attempt - 1))
                else:
                    outcome.duration += time.perf_counter() - t0
                    if recovered is None and attempt > 1:
                        recovered = "retry"
                    outcome._succeed(result, recovered)
                    break
            if not outcome.ok:
                outcome.status = "failed"
