"""Process-local counters, gauges and histograms with a snapshot API.

Three instrument kinds, one registry:

* :class:`Counter`   — monotonically increasing totals
  (``train.batches``, ``reconstruct.chunks.fallback``);
* :class:`Gauge`     — last-written values (``train.loss``, ``train.lr``);
* :class:`Histogram` — streaming distribution summaries (count / total /
  min / max / mean) without storing samples (``epoch.seconds``).

A :class:`MetricsRegistry` owns the instruments; ``snapshot()`` returns a
plain, JSON-serializable dict and ``reset()`` zeroes every instrument in
place (held references stay valid).  Each instrument kind has its own
namespace, so ``counter("x")`` and ``gauge("x")`` coexist.

Like :mod:`repro.obs.timing`, the module-level helpers (:func:`counter`,
:func:`gauge`, :func:`histogram`) dispatch to the *active* registry —
installed by :class:`repro.obs.recorder.RunRecorder` — and hand back
shared no-op instruments when observability is off, so instrumented hot
paths cost a dict-free function call when disabled.
"""

from __future__ import annotations

import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "counter",
    "gauge",
    "histogram",
    "activate",
    "deactivate",
    "active_registry",
]


class Counter:
    """A monotonically increasing total, safe to bump from several threads.

    ``+=`` is a read, an add and a write; the lock keeps two threads from
    reading the same total and losing an increment.
    """

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r}: negative increment {amount}")
        with self._lock:
            self.value += amount

    def reset(self) -> None:
        with self._lock:
            self.value = 0


class Gauge:
    """The most recently written value (``None`` until first ``set``)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float | None = None

    def set(self, value: float) -> None:
        self.value = float(value)

    def reset(self) -> None:
        self.value = None


class Histogram:
    """Streaming distribution summary; stores no individual samples."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.reset()

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float | None:
        if self.count == 0:
            return None
        return self.total / self.count

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def summary(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Get-or-create home for a run's instruments."""

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        inst = self.counters.get(name)
        if inst is None:
            # setdefault: threads racing to create one name share a counter.
            inst = self.counters.setdefault(name, Counter(name))
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self.gauges.get(name)
        if inst is None:
            inst = self.gauges[name] = Gauge(name)
        return inst

    def histogram(self, name: str) -> Histogram:
        inst = self.histograms.get(name)
        if inst is None:
            inst = self.histograms[name] = Histogram(name)
        return inst

    def snapshot(self) -> dict:
        """Plain-data copy of every instrument (JSON-serializable)."""
        return {
            "counters": {k: c.value for k, c in sorted(self.counters.items())},
            "gauges": {k: g.value for k, g in sorted(self.gauges.items())},
            "histograms": {k: h.summary() for k, h in sorted(self.histograms.items())},
        }

    def reset(self) -> None:
        """Zero every instrument in place; held references stay usable."""
        for group in (self.counters, self.gauges, self.histograms):
            for inst in group.values():
                inst.reset()


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram for the disabled state."""

    __slots__ = ()
    name = "null"

    def inc(self, amount: int | float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def reset(self) -> None:
        pass


_NULL = _NullInstrument()
_ACTIVE: MetricsRegistry | None = None


def activate(registry: MetricsRegistry) -> MetricsRegistry | None:
    """Install ``registry`` as the process-wide sink; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry
    return previous


def deactivate(previous: MetricsRegistry | None = None) -> None:
    """Remove the active registry (restoring ``previous``, usually ``None``)."""
    global _ACTIVE
    _ACTIVE = previous


def active_registry() -> MetricsRegistry | None:
    """The currently installed registry, or ``None`` when observability is off."""
    return _ACTIVE


def counter(name: str):
    """The active registry's counter ``name``; a shared no-op when disabled."""
    reg = _ACTIVE
    return _NULL if reg is None else reg.counter(name)


def gauge(name: str):
    """The active registry's gauge ``name``; a shared no-op when disabled."""
    reg = _ACTIVE
    return _NULL if reg is None else reg.gauge(name)


def histogram(name: str):
    """The active registry's histogram ``name``; a shared no-op when disabled."""
    reg = _ACTIVE
    return _NULL if reg is None else reg.histogram(name)
