"""Outside-in call tracer for the end-to-end benchmark.

The tracer wraps functions and methods of the library from the outside
(``src/`` is not modified) and records, per thread, how often each
wrapped name ran, its total time and its self time (duration minus the
wrapped calls nested inside it on the same thread), plus the interval of
every top-level call so the benchmark can tell which part of the wall
time no wrapped call covers.

Each thread writes only its own table, found in a dict keyed by thread
id, so the tracer takes no lock.  A process forked while another thread
is inside a wrapped call (the warm reconstruction pool forks its workers
mid-campaign) therefore cannot inherit a held lock; the child's copy of
the tables is simply discarded with the child.
"""

from __future__ import annotations

import functools
import threading
import time

__all__ = ["Tracer", "calibrate_overhead", "union_seconds"]


class _ThreadTable:
    __slots__ = ("stack", "calls", "total", "self_s", "counts", "spans")

    def __init__(self) -> None:
        self.stack: list[float] = []  # nested-call seconds of each open frame
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.spans: list[tuple[float, float]] = []  # top-level (start, end)


class Tracer:
    """Per-thread call tables over wrapped functions; see the module doc."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self._threads: dict[int, _ThreadTable] = {}
        self._undo: list[tuple[object, str, object]] = []

    def _table(self) -> _ThreadTable:
        ident = threading.get_ident()
        table = self._threads.get(ident)
        if table is None:
            table = self._threads[ident] = _ThreadTable()
        return table

    # ---------------------------------------------------------------- wrap
    def wrap(self, owner, attr: str, name, count=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper.

        ``name`` is the table key, or a callable ``name(args)`` giving it
        per call (per-shape layer names).  ``count`` is an optional
        ``count(args, kwargs, result)`` returning ``(key, amount)`` pairs
        added to the extra counters after a successful call.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        clock = self.clock
        table_of = self._table
        fixed = None if callable(name) else name

        @functools.wraps(original)
        def traced(*args, **kwargs):
            table = table_of()
            stack = table.stack
            stack.append(0.0)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                else:
                    table.spans.append((start, end))
                key = fixed if fixed is not None else name(args)
                table.calls[key] = table.calls.get(key, 0) + 1
                table.total[key] = table.total.get(key, 0.0) + elapsed
                table.self_s[key] = table.self_s.get(key, 0.0) + elapsed - nested
            if count is not None:
                counts = table.counts
                for ckey, amount in count(args, kwargs, result):
                    counts[ckey] = counts.get(ckey, 0) + amount
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------------- tables
    def merged(self) -> dict:
        """All threads' tables summed: ``{calls, total, self_s, counts}``."""
        out = {"calls": {}, "total": {}, "self_s": {}, "counts": {}}
        for table in list(self._threads.values()):
            for field in out:
                target = out[field]
                for key, value in getattr(table, field).copy().items():
                    target[key] = target.get(key, 0) + value
        return out

    def spans(self) -> list[tuple[float, float]]:
        """Top-level call intervals of every thread."""
        out: list[tuple[float, float]] = []
        for table in list(self._threads.values()):
            out.extend(list(table.spans))
        return out

    def unattributed(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` during which no thread was in a wrapped call."""
        return (end - start) - union_seconds(self.spans(), start, end)


def union_seconds(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    covered = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                covered += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        covered += cur_b - cur_a
    return covered


def calibrate_overhead(calls: int = 20000) -> float:
    """Seconds one traced call adds over a plain call, measured here."""

    class Probe:
        def noop(self, x):
            return x

    probe = Probe()
    plain = probe.noop
    t0 = time.perf_counter()
    for i in range(calls):
        plain(i)
    bare = time.perf_counter() - t0
    tracer = Tracer()
    tracer.wrap(Probe, "noop", lambda args: "probe")
    traced = probe.noop
    t0 = time.perf_counter()
    for i in range(calls):
        traced(i)
    wrapped = time.perf_counter() - t0
    return max(0.0, (wrapped - bare) / calls)
