"""Lock-order sanitizer: detect cyclic lock-acquisition order at runtime.

Two threads that take the same pair of locks in opposite orders deadlock
only under the right interleaving — a test suite can pass for months on
a latent inversion.  The static rules (``THR0xx``) cannot see dynamic
acquisition *order*, so this sanitizer records it:

* :func:`threading.Lock` / :func:`threading.RLock` /
  :class:`threading.Semaphore` / :class:`threading.BoundedSemaphore` are
  patched to return proxies that note, per thread, which lock is
  acquired while which others are held;
* every "A held while acquiring B" pair becomes an edge A→B in a global
  order graph; an edge that closes a cycle is an ordering inversion;
* violations are collected (never raised inside the acquiring thread —
  that could itself deadlock the program under test) and raised as
  :class:`LockOrderViolation` when the sanitizer context exits.

Locks created *by the stdlib's own machinery* (``threading.py``,
``queue.py``, ``sched.py``, ``concurrent.futures``) are left unwrapped:
``Condition`` and ``Queue`` internals have lock-identity expectations a
proxy must not disturb, and their ordering is the stdlib's problem, not
this repo's.  ``concurrent.futures`` executors, for one, take an idle
semaphore as a counter — acquired on the submitting thread, released on
a worker — which an ownership-based order graph would read as a lock the
submitter holds forever.
"""

from __future__ import annotations

import sys
import threading

__all__ = ["LockOrderSanitizer", "LockOrderViolation"]

#: Lock creations whose caller lives in one of these files are not wrapped.
_STDLIB_CALLERS = (
    "threading.py",
    "queue.py",
    "sched.py",
    "logging/__init__.py",
    "concurrent/futures/_base.py",
    "concurrent/futures/thread.py",
    "concurrent/futures/process.py",
)


class LockOrderViolation(RuntimeError):
    """Raised when lock acquisition orders form a cycle."""


class _LockProxy:
    """Transparent wrapper recording acquire/release against the order graph."""

    def __init__(self, inner, label: str, sanitizer: "LockOrderSanitizer") -> None:
        self._inner = inner
        self._label = label
        self._sanitizer = sanitizer

    # -- the protocol surface the repo's code uses ------------------------
    def acquire(self, *args, **kwargs):
        got = self._inner.acquire(*args, **kwargs)
        if got:
            self._sanitizer._note_acquire(self)
        return got

    def release(self, *args, **kwargs):
        self._sanitizer._note_release(self)
        return self._inner.release(*args, **kwargs)

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.release()
        return False

    def locked(self):
        return self._inner.locked()

    def __getattr__(self, name: str):
        # Everything else (``_at_fork_reinit``, which stdlib modules hand
        # to ``os.register_at_fork``; a semaphore's ``_value``) is the
        # wrapped lock's own.  ``_inner`` itself is never forwarded, so a
        # half-built proxy fails plainly instead of recursing.
        if name == "_inner":
            raise AttributeError(name)
        return getattr(self._inner, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<sanitized {self._label}>"


class LockOrderSanitizer:
    """Context manager wiring the order recorder into ``threading``."""

    def __init__(self) -> None:
        self._graph: dict[int, set[int]] = {}     # id(proxy) -> successors
        self._labels: dict[int, str] = {}
        # The graph is keyed by id(proxy); holding every proxy until exit
        # keeps a collected lock's id from passing to a new one, whose
        # acquisitions would otherwise extend the dead lock's edges.
        self._proxies: list[_LockProxy] = []
        self._edge_sites: dict[tuple[int, int], str] = {}
        self._held = threading.local()
        self._mutex = threading.Lock()            # guards graph mutation
        self.violations: list[str] = []
        self._originals: dict[str, object] = {}

    # ------------------------------------------------------------ patching
    def __enter__(self) -> "LockOrderSanitizer":
        for name in ("Lock", "RLock", "Semaphore", "BoundedSemaphore"):
            self._originals[name] = getattr(threading, name)
            setattr(threading, name, self._factory(name, self._originals[name]))
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        for name, original in self._originals.items():
            setattr(threading, name, original)
        self._originals.clear()
        self._proxies.clear()
        if exc_type is None and self.violations:
            raise LockOrderViolation(
                "cyclic lock-acquisition order detected:\n  "
                + "\n  ".join(self.violations)
            )
        return False

    def _factory(self, kind: str, original):
        def make(*args, **kwargs):
            inner = original(*args, **kwargs)
            caller = sys._getframe(1).f_code.co_filename
            if caller.endswith(_STDLIB_CALLERS):
                return inner
            frame = sys._getframe(1)
            label = f"{kind}@{frame.f_code.co_filename}:{frame.f_lineno}"
            proxy = _LockProxy(inner, label, self)
            with self._mutex:
                self._labels[id(proxy)] = label
                self._proxies.append(proxy)
            return proxy

        return make

    # ----------------------------------------------------------- recording
    def _stack(self) -> list[int]:
        if not hasattr(self._held, "stack"):
            self._held.stack = []
        return self._held.stack

    def _note_acquire(self, proxy: _LockProxy) -> None:
        stack = self._stack()
        pid = id(proxy)
        if stack:
            held = stack[-1]
            if held != pid:  # re-entrant RLock acquire is not an edge
                with self._mutex:
                    self._record_edge(held, pid)
        stack.append(pid)

    def _note_release(self, proxy: _LockProxy) -> None:
        stack = self._stack()
        pid = id(proxy)
        # Locks are usually released LIFO, but tolerate out-of-order.
        if pid in stack:
            stack.reverse()
            stack.remove(pid)
            stack.reverse()

    def _record_edge(self, a: int, b: int) -> None:
        edges = self._graph.setdefault(a, set())
        if b in edges:
            return
        if self._reaches(b, a):
            cycle = (
                f"'{self._labels.get(b, '?')}' is acquired while holding "
                f"'{self._labels.get(a, '?')}' here, but the opposite order "
                "was also observed"
            )
            self.violations.append(cycle)
        edges.add(b)

    def _reaches(self, start: int, goal: int) -> bool:
        seen: set[int] = set()
        frontier = [start]
        while frontier:
            node = frontier.pop()
            if node == goal:
                return True
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(self._graph.get(node, ()))
        return False