"""Per-run telemetry: JSONL event streams and atomic ``run.json`` manifests.

A :class:`RunRecorder` owns one run directory::

    <run_dir>/events.jsonl   # append-only event stream, one JSON object/line
    <run_dir>/run.json       # manifest, written atomically at finalize

While active (``with RunRecorder(dir) as rec:``) it is installed as the
process-wide sink for :func:`repro.obs.span` and the
:func:`repro.obs.counter`/``gauge``/``histogram`` helpers, so every
instrumented library call lands in this run's records.  Span open/close
events stream to ``events.jsonl`` *as they happen* (line-buffered), so a
crashed or killed run still leaves a readable event prefix — and no
``run.json``, which is how :mod:`repro.obs.report` recognizes an
unfinalized run.

The manifest captures provenance alongside the numbers: git SHA, a stable
hash of the run's configuration, seed, package versions, peak RSS, the
metric snapshot and per-name span aggregates.  It is committed with
write-to-temp + ``os.replace`` so a crash during finalize can never leave
a truncated ``run.json`` under the final name.

:class:`NullRecorder` is the disabled-mode stand-in: same interface, no
files, no activation, near-zero cost.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from repro.obs import metrics as _metrics
from repro.obs import timing as _timing
from repro.obs.metrics import MetricsRegistry
from repro.obs.timing import Span, SpanTracker

__all__ = [
    "RunRecorder",
    "NullRecorder",
    "active_recorder",
    "record_event",
    "config_hash",
    "EVENTS_FILENAME",
    "MANIFEST_FILENAME",
    "SCHEMA_VERSION",
]

EVENTS_FILENAME = "events.jsonl"
MANIFEST_FILENAME = "run.json"
#: bump when the event or manifest schema changes incompatibly
SCHEMA_VERSION = 1

_ACTIVE: "RunRecorder | None" = None


def active_recorder() -> "RunRecorder | None":
    """The recorder currently receiving this process's telemetry, if any."""
    return _ACTIVE


def _detach_forked_child() -> None:
    """Turn telemetry off in a forked child (a campaign pool worker).

    The child inherits the parent's tracker, registry and event file in
    whatever state the fork caught them: another parent thread may have
    held the tracker's lock or the file's buffer lock, which the child
    could then never acquire.  Its telemetry is dropped instead, so it
    never touches them.
    """
    global _ACTIVE
    _ACTIVE = None
    _timing.deactivate()
    _metrics.deactivate()


if hasattr(os, "register_at_fork"):  # POSIX only; elsewhere nothing forks
    os.register_at_fork(after_in_child=_detach_forked_child)


def record_event(kind: str, **payload) -> None:
    """Emit a custom event to the active recorder; no-op when none is active.

    This is the hook instrumented library code uses for discrete
    occurrences that are not spans or metrics — checkpoint writes, health
    interventions, degraded chunks.
    """
    rec = _ACTIVE
    if rec is not None:
        rec.event(kind, **payload)


def config_hash(config: dict) -> str:
    """Stable short hash of a JSON-able configuration mapping."""
    blob = json.dumps(config, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _git_sha() -> str | None:
    """Best-effort current commit SHA; ``None`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def _peak_rss_kb() -> int | None:
    """Peak resident set size in KiB (``None`` where unsupported)."""
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes; normalize to KiB.
    if sys.platform == "darwin":
        peak //= 1024
    return int(peak)


def _package_versions() -> dict:
    # Installed-package metadata, not an import: a run that never builds a
    # kd-tree, triangulation or RBF does not load scipy for its manifest.
    from importlib import metadata

    versions = {"python": platform.python_version()}
    for name in ("numpy", "scipy"):
        try:
            versions[name] = metadata.version(name)
        except metadata.PackageNotFoundError:
            continue
    return versions


def _aggregate_spans(roots: list[Span], into: dict) -> dict:
    for node in roots:
        agg = into.setdefault(node.name, {"count": 0, "wall": 0.0, "cpu": 0.0})
        agg["count"] += 1
        agg["wall"] += node.wall
        agg["cpu"] += node.cpu
        _aggregate_spans(node.children, into)
    return into


class RunRecorder:
    """Streams one run's telemetry to ``run_dir`` (see module docstring).

    Parameters
    ----------
    run_dir:
        Directory for this run's artifacts; created if missing.
    run_id:
        Defaults to the directory's name.
    meta:
        JSON-able run configuration (profile, dataset, seed, ...) recorded
        in the ``run_start`` event and hashed into the manifest's
        ``config_hash``.
    """

    def __init__(
        self,
        run_dir: str | Path,
        run_id: str | None = None,
        meta: dict | None = None,
    ) -> None:
        self.run_dir = Path(run_dir)
        self.run_id = run_id if run_id is not None else self.run_dir.name
        self.meta = dict(meta) if meta else {}
        self.tracker = SpanTracker(on_open=self._span_open, on_close=self._span_close)
        self.metrics = MetricsRegistry()
        self.enabled = True
        self._fh = None
        self._seq = 0
        self._t0_wall = None
        self._t0_perf = None
        self._prev_tracker = None
        self._prev_registry = None
        self._prev_recorder = None
        self._finalized = False

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "RunRecorder":
        """Open the event stream and install this recorder process-wide."""
        global _ACTIVE
        if self._fh is not None:
            raise RuntimeError(f"recorder for {self.run_dir} already started")
        self.run_dir.mkdir(parents=True, exist_ok=True)
        # Line buffering: every event line reaches the OS as it is written,
        # so a killed process leaves a readable prefix.
        self._fh = open(
            self.run_dir / EVENTS_FILENAME, "w", encoding="utf-8", buffering=1
        )
        self._t0_wall = time.time()
        self._t0_perf = time.perf_counter()
        self.event(
            "run_start",
            run_id=self.run_id,
            schema=SCHEMA_VERSION,
            pid=os.getpid(),
            meta=self.meta,
        )
        self._prev_tracker = _timing.activate(self.tracker)
        self._prev_registry = _metrics.activate(self.metrics)
        self._prev_recorder = _ACTIVE
        _ACTIVE = self
        return self

    def __enter__(self) -> "RunRecorder":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.finalize(status="failed" if exc_type is not None else "completed")
        return False

    @property
    def started(self) -> bool:
        return self._fh is not None

    # --------------------------------------------------------------- events
    def event(self, kind: str, **payload) -> None:
        """Append one JSONL event (monotonic ``seq``, wall-clock ``t``)."""
        if self._fh is None:
            return
        record = {"seq": self._seq, "t": round(time.time(), 6), "kind": kind}
        record.update(payload)
        self._seq += 1
        self._fh.write(json.dumps(record, default=str) + "\n")

    def _span_open(self, node: Span) -> None:
        self.event(
            "span_open",
            id=node.id,
            parent=node.parent_id,
            name=node.name,
            attrs=node.attrs,
        )

    def _span_close(self, node: Span) -> None:
        self.event(
            "span_close",
            id=node.id,
            name=node.name,
            wall=round(node.wall, 9),
            cpu=round(node.cpu, 9),
            attrs=node.attrs,
        )

    def metric_snapshot(self) -> dict:
        """Record (and return) the current metric values as a ``metrics`` event."""
        snap = self.metrics.snapshot()
        self.event("metrics", snapshot=snap)
        return snap

    # ------------------------------------------------------------- finalize
    def finalize(self, status: str = "completed") -> dict | None:
        """Close the stream, uninstall, and atomically write ``run.json``.

        Idempotent: a second call returns ``None`` without touching disk.
        Returns the manifest dict written.
        """
        global _ACTIVE
        if self._finalized or self._fh is None:
            return None
        self._finalized = True

        snap = self.metrics.snapshot()
        wall = time.perf_counter() - self._t0_perf
        self.event("metrics", snapshot=snap)
        self.event("run_end", status=status, wall=round(wall, 6))
        event_count = self._seq
        self._fh.close()
        self._fh = None

        _timing.deactivate(self._prev_tracker)
        _metrics.deactivate(self._prev_registry)
        _ACTIVE = self._prev_recorder

        manifest = {
            "schema": SCHEMA_VERSION,
            "run_id": self.run_id,
            "status": status,
            "started_unix": self._t0_wall,
            "wall_seconds": wall,
            "hostname": platform.node(),
            "git_sha": _git_sha(),
            "config": self.meta,
            "config_hash": config_hash(self.meta),
            "seed": self.meta.get("seed"),
            "versions": _package_versions(),
            "peak_rss_kb": _peak_rss_kb(),
            "events": event_count,
            "metrics": snap,
            "spans": _aggregate_spans(self.tracker.roots, {}),
        }
        self._write_manifest(manifest)
        return manifest

    def _write_manifest(self, manifest: dict) -> None:
        """Commit ``run.json`` via temp file + ``os.replace`` (atomic)."""
        # Imported here: repro.obs loads before repro.resilience, whose
        # modules record through repro.obs.
        from repro.resilience.checkpoint import atomic_write

        text = json.dumps(manifest, indent=2, default=str) + "\n"
        atomic_write(self.run_dir / MANIFEST_FILENAME, lambda fh: fh.write(text.encode("utf-8")))


class NullRecorder:
    """Disabled-mode recorder: same surface as :class:`RunRecorder`, no I/O.

    Used wherever a recorder is threaded through unconditionally (e.g.
    :func:`repro.experiments.runner.build_recorder` with ``config.obs``
    unset) so call sites need no ``if`` around the telemetry plumbing.
    """

    run_dir = None
    run_id = "null"
    enabled = False
    started = False

    def start(self) -> "NullRecorder":
        return self

    def __enter__(self) -> "NullRecorder":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def event(self, kind: str, **payload) -> None:
        pass

    def metric_snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def finalize(self, status: str = "completed") -> None:
        return None
