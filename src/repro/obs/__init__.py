"""Instrumentation and run telemetry: spans, metrics, JSONL run records.

The paper's second headline claim is about *time* — a trained FCNN
reconstructs in near-constant time w.r.t. sampling percentage while
rule-based interpolants slow down (Fig 10 / Table I), and training-subset
sampling cuts training time ~linearly (Fig 14 / Table II).  This package
is the measurement substrate that makes such claims observable and
regressable on every run, with zero third-party dependencies:

* :mod:`repro.obs.timing`   — hierarchical :func:`span` context managers
  and :func:`timed` decorators over monotonic wall/CPU clocks, building
  nested-span trees (``fcnn.predict`` vs ``interp.linear.eval``);
* :mod:`repro.obs.metrics`  — process-local counters / gauges /
  histograms (``train.batches``, ``reconstruct.chunks.fallback``) with a
  JSON-able snapshot API;
* :mod:`repro.obs.recorder` — :class:`RunRecorder` streams structured
  JSONL events (span open/close, metric snapshots, health interventions,
  checkpoint writes) to ``<run_dir>/events.jsonl`` and finalizes an
  atomic ``run.json`` manifest (git SHA, config hash, seed, package
  versions, peak RSS);
* :mod:`repro.obs.report`   — loaders plus the ``repro obs report`` CLI
  rendering span trees / metric tables and diffing two runs for
  regressions.

Instrumentation is **off by default and cheap when off**: without an
active :class:`RunRecorder`, :func:`span` returns a shared no-op context
and the metric helpers return shared no-op instruments, so the
instrumented hot paths (training epochs, reconstruction batches) pay a
single function call.  Enable it per run::

    from repro.obs import RunRecorder, span, counter

    with RunRecorder("runs/demo", meta={"seed": 7}) as rec:
        with span("reconstruct", method="linear"):
            counter("reconstruct.chunks.total").inc()

    # runs/demo/events.jsonl + runs/demo/run.json now exist
    # render with: repro obs report runs/demo

The package imports nothing from the rest of ``repro`` at import time
(the recorder commits ``run.json`` through
:func:`repro.resilience.checkpoint.atomic_write`, imported when it
finalizes), so every layer (nn, core, parallel, interpolation,
experiments) can depend on it without cycles.  See
``docs/OBSERVABILITY.md`` for the event schema, manifest fields and CLI
usage.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    histogram,
)
from repro.obs.recorder import (
    NullRecorder,
    RunRecorder,
    active_recorder,
    config_hash,
    record_event,
)
from repro.obs.report import diff_runs, format_report, load_run
from repro.obs.timing import Span, SpanTracker, span, timed

__all__ = [
    "Span",
    "SpanTracker",
    "span",
    "timed",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "counter",
    "gauge",
    "histogram",
    "RunRecorder",
    "NullRecorder",
    "active_recorder",
    "record_event",
    "config_hash",
    "load_run",
    "format_report",
    "diff_runs",
]
