"""Counter/gauge/histogram semantics and the snapshot/reset registry API."""

from __future__ import annotations

import json
import sys
import threading
import time

import pytest

from repro.obs import metrics as metrics_mod
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    activate,
    active_registry,
    counter,
    deactivate,
    gauge,
    histogram,
)


@pytest.fixture(autouse=True)
def _clean_registry_state():
    assert active_registry() is None
    yield
    deactivate(None)


class TestInstruments:
    def test_counter_monotonic(self):
        c = Counter("n")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError, match="negative"):
            c.inc(-1)

    def test_counter_keeps_every_increment_from_many_threads(self):
        # The amount's addition yields the GIL between the counter's read
        # and its write, the interleaving a free-threaded build allows at
        # any instruction: an unlocked ``+=`` loses most increments here.
        class Yielding(int):
            def __radd__(self, other):
                time.sleep(0)
                return int(other) + int(self)

        c = Counter("n")
        threads, per_thread = 8, 200
        start = threading.Barrier(threads)

        def bump():
            start.wait(timeout=10)
            for _ in range(per_thread):
                c.inc(Yielding(1))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=bump) for _ in range(threads)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert c.value == threads * per_thread

    def test_registry_threads_share_one_counter_per_name(self):
        reg = MetricsRegistry()
        threads = 8
        start = threading.Barrier(threads)

        def bump():
            start.wait(timeout=10)
            reg.counter("shared").inc()

        workers = [threading.Thread(target=bump) for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
        assert not any(w.is_alive() for w in workers)
        assert reg.snapshot()["counters"]["shared"] == threads

    def test_gauge_last_value_wins(self):
        g = Gauge("loss")
        assert g.value is None
        g.set(0.5)
        g.set(0.25)
        assert g.value == 0.25

    def test_histogram_streaming_summary(self):
        h = Histogram("seconds")
        assert h.mean is None
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        assert h.summary() == {"count": 3, "total": 6.0, "mean": 2.0, "min": 1.0, "max": 3.0}


class TestRegistry:
    def test_get_or_create_identity(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.counter("a") is not reg.counter("b")

    def test_separate_namespaces_per_kind(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        reg.gauge("x").set(2.0)
        reg.histogram("x").observe(3.0)
        snap = reg.snapshot()
        assert snap["counters"]["x"] == 1
        assert snap["gauges"]["x"] == 2.0
        assert snap["histograms"]["x"]["count"] == 1

    def test_snapshot_is_json_able_and_sorted(self):
        reg = MetricsRegistry()
        for name in ("zebra", "alpha"):
            reg.counter(name).inc()
        snap = reg.snapshot()
        json.dumps(snap)  # must not raise
        assert list(snap["counters"]) == ["alpha", "zebra"]

    def test_reset_zeroes_in_place(self):
        reg = MetricsRegistry()
        held_counter = reg.counter("kept")
        held_hist = reg.histogram("kept")
        held_counter.inc(7)
        held_hist.observe(1.5)
        reg.reset()
        # same objects, zeroed, still registered
        assert held_counter.value == 0
        assert held_hist.count == 0 and held_hist.min is None
        assert reg.counter("kept") is held_counter
        held_counter.inc()
        assert reg.snapshot()["counters"]["kept"] == 1


class TestModuleHelpers:
    def test_disabled_helpers_share_one_noop(self):
        assert counter("a") is counter("b") is gauge("c") is histogram("d")
        # and the no-op absorbs every instrument method
        counter("a").inc(5)
        gauge("c").set(1.0)
        histogram("d").observe(2.0)

    def test_active_registry_receives_writes(self):
        reg = MetricsRegistry()
        previous = activate(reg)
        try:
            counter("train.batches").inc(3)
            gauge("train.loss").set(0.125)
            histogram("epoch.seconds").observe(0.5)
        finally:
            deactivate(previous)
        snap = reg.snapshot()
        assert snap["counters"]["train.batches"] == 3
        assert snap["gauges"]["train.loss"] == 0.125
        assert snap["histograms"]["epoch.seconds"]["count"] == 1
        # after deactivation, writes go nowhere
        counter("train.batches").inc(100)
        assert reg.snapshot()["counters"]["train.batches"] == 3

    def test_noop_is_shared_singleton(self):
        assert counter("anything") is metrics_mod._NULL
