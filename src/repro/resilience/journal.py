"""Durable write-ahead journal for crash-safe campaigns.

A campaign that dies at timestep 37 of 50 must not restart from zero.
:class:`CampaignJournal` records per-timestep stage completion
(``sampled -> fine-tuned -> reconstructed -> emitted``) as an append-only
JSONL file where every record carries its own checksum and is flushed and
fsynced before the campaign proceeds.  On restart, :meth:`CampaignJournal.plan`
computes the contiguous prefix of timesteps whose terminal ``emitted``
record is durable (optionally re-verified against on-disk content hashes),
so ``repro campaign --resume`` skips exactly that prefix bit-identically
and re-enters the pipeline mid-stream.

Durability contract:

* every :meth:`~CampaignJournal.record` call writes one line, flushes, and
  ``os.fsync``\\ s before returning — a record observed by the caller
  survives the process dying immediately after;
* a torn tail (the crash interrupted the final ``write``) is detected by
  the per-line checksum and silently dropped on load;
* corruption *before* intact records (a flipped bit, an editor mangling
  the file) is not recoverable bookkeeping — it raises
  :class:`JournalCorruptionError` rather than resuming from a lie.

Model state needed for bit-exact resume (flat fine-tuned weights per
timestep) is stored next to the journal via the PR 2 atomic checkpoint
primitives (:func:`repro.resilience.checkpoint.atomic_write_npz`), see
:meth:`CampaignJournal.save_state` / :meth:`CampaignJournal.load_state`.

This module imports only :mod:`repro.obs` (which itself imports nothing
from the rest of ``repro``), keeping ``repro.resilience`` dependency-free
for every other layer.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.obs import counter, record_event
from repro.resilience.checkpoint import atomic_write, atomic_write_npz, read_verified_npz

__all__ = [
    "STAGES",
    "TERMINAL_STAGE",
    "CampaignJournal",
    "JournalCorruptionError",
    "JournalEntry",
    "ResumePlan",
    "content_hash",
]

#: Per-timestep pipeline stages, in completion order.
STAGES = ("sampled", "fine-tuned", "reconstructed", "emitted")

#: The stage whose durable record marks a timestep as fully done.
TERMINAL_STAGE = "emitted"

_META_STAGE = "meta"
_FORMAT = "repro-campaign-journal/1"


class JournalCorruptionError(RuntimeError):
    """A journal record before the tail failed its checksum or parse."""

    def __init__(self, path: os.PathLike | str, reason: str) -> None:
        self.path = Path(path)
        self.reason = reason
        super().__init__(f"corrupt campaign journal {self.path}: {reason}")


def content_hash(data: bytes | np.ndarray) -> str:
    """Stable short content hash (blake2b-128 hex) of bytes or an array."""
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data).tobytes()
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _record_checksum(body: dict) -> str:
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=8).hexdigest()


@dataclass(frozen=True)
class JournalEntry:
    """One durable journal record."""

    seq: int
    timestep: int
    stage: str
    payload: dict


@dataclass(frozen=True)
class ResumePlan:
    """What a resumed campaign skips and what it still runs.

    ``completed`` is the contiguous prefix of the requested timesteps whose
    terminal records are durable (and verified, when a verifier was given);
    model state is sequential across timesteps, so a gap ends the skippable
    prefix even if later timesteps also finished.
    """

    completed: tuple[int, ...]
    remaining: tuple[int, ...]
    #: terminal-stage payload per completed timestep, in order
    payloads: tuple[dict, ...] = ()

    @property
    def fresh(self) -> bool:
        return not self.completed


class CampaignJournal:
    """Append-only, checksummed, fsynced campaign journal.

    Parameters
    ----------
    path:
        Journal file (conventionally ``<campaign dir>/.wal/journal.jsonl``).
        Parent directories are created.  Sidecar model states live next to
        it (``state_t*.npz``).
    config:
        Campaign configuration dict recorded as the first (``meta``)
        record.  On ``resume=True`` the stored config must match — resuming
        a campaign under different parameters would silently mix
        incompatible outputs.
    resume:
        ``True`` loads existing records (tolerating a torn tail) and keeps
        appending; ``False`` (a fresh run) truncates any stale journal.

    Thread safety: :meth:`record` may be called from the pipelined
    scheduler's caller and emit threads concurrently; appends are
    serialized by an internal lock.
    """

    def __init__(
        self,
        path: os.PathLike | str,
        *,
        config: dict | None = None,
        resume: bool = False,
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._seq = 0
        self.entries: list[JournalEntry] = []
        self.torn_tail = False
        self.config: dict | None = None
        if resume and self.path.exists():
            self._load()
            if config is not None:
                if self.config is not None and self.config != dict(config):
                    self.close()
                    raise JournalCorruptionError(
                        self.path,
                        "stored campaign config does not match the resume request "
                        f"(stored {self.config!r} != requested {dict(config)!r})",
                    )
                if self.config is None:
                    # Journal lost even its meta record (aggressive truncation):
                    # re-record the config so the next resume can verify again.
                    self._append(_META_STAGE, -1, {"config": dict(config)})
                    self.config = dict(config)
        else:
            self._file = open(self.path, "w", encoding="utf-8")
            if config is not None:
                self._append(_META_STAGE, -1, {"config": dict(config)})
                self.config = dict(config)
        counter("journal.opened").inc()

    # ------------------------------------------------------------------ load
    def _load(self) -> None:
        raw = self.path.read_bytes()
        lines = raw.split(b"\n")
        parsed: list[JournalEntry] = []
        bad_at: int | None = None
        bad_reason = ""
        for lineno, line in enumerate(lines):
            if not line.strip():
                continue
            entry, reason = self._parse_line(line)
            if entry is None:
                if bad_at is None:
                    bad_at, bad_reason = lineno, reason
                continue
            if bad_at is not None:
                # Intact records *after* a bad one: interior corruption, not
                # a torn tail.  Resuming past it could skip work that never
                # happened — refuse.
                raise JournalCorruptionError(
                    self.path, f"line {bad_at + 1}: {bad_reason} (intact records follow)"
                )
            parsed.append(entry)
        if bad_at is not None:
            self.torn_tail = True
            record_event(
                "journal.torn_tail",
                path=str(self.path),
                line=bad_at + 1,
                reason=bad_reason,
            )
            counter("journal.torn_tails").inc()
        for entry in parsed:
            if entry.stage == _META_STAGE:
                self.config = dict(entry.payload.get("config", {}))
            else:
                self.entries.append(entry)
        self._seq = (parsed[-1].seq + 1) if parsed else 0
        # Rewrite the durable prefix so appends never follow a torn tail.
        mode = "w" if self.torn_tail else "a"
        self._file = open(self.path, mode, encoding="utf-8")
        if self.torn_tail:
            for entry in parsed:
                self._write_entry(entry)

    def _parse_line(self, line: bytes) -> tuple[JournalEntry | None, str]:
        try:
            obj = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return None, f"unparsable record ({type(exc).__name__})"
        if not isinstance(obj, dict):
            return None, "record is not an object"
        sha = obj.pop("sha", None)
        if sha is None or _record_checksum(obj) != sha:
            return None, "checksum mismatch"
        try:
            return (
                JournalEntry(
                    seq=int(obj["seq"]),
                    timestep=int(obj["t"]),
                    stage=str(obj["stage"]),
                    payload=dict(obj.get("payload", {})),
                ),
                "",
            )
        except (KeyError, TypeError, ValueError) as exc:
            return None, f"malformed record ({type(exc).__name__})"

    # ---------------------------------------------------------------- append
    def _write_entry(self, entry: JournalEntry) -> None:
        body = {
            "seq": entry.seq,
            "t": entry.timestep,
            "stage": entry.stage,
            "payload": entry.payload,
        }
        body["sha"] = _record_checksum(
            {k: body[k] for k in ("seq", "t", "stage", "payload")}
        )
        self._file.write(json.dumps(body, sort_keys=True, separators=(",", ":")) + "\n")
        self._file.flush()
        os.fsync(self._file.fileno())

    def _append(self, stage: str, timestep: int, payload: dict) -> JournalEntry:
        entry = JournalEntry(self._seq, int(timestep), stage, payload)
        self._write_entry(entry)
        self._seq += 1
        if stage != _META_STAGE:
            self.entries.append(entry)
        return entry

    def record(self, timestep: int, stage: str, **payload: Any) -> JournalEntry:
        """Durably record that ``stage`` completed for ``timestep``.

        Returns only after the record is flushed and fsynced.
        """
        if stage not in STAGES:
            raise ValueError(f"unknown stage {stage!r}; expected one of {STAGES}")
        with self._lock:
            entry = self._append(stage, timestep, dict(payload))
        counter("journal.records").inc()
        return entry

    # ----------------------------------------------------------------- query
    def stage_payload(self, timestep: int, stage: str) -> dict | None:
        """Payload of the latest record for ``(timestep, stage)``, or None."""
        with self._lock:
            for entry in reversed(self.entries):
                if entry.timestep == timestep and entry.stage == stage:
                    return dict(entry.payload)
        return None

    def completed(self, timestep: int) -> bool:
        """True when the terminal stage is durably recorded for ``timestep``."""
        return self.stage_payload(timestep, TERMINAL_STAGE) is not None

    def plan(
        self,
        timesteps: Sequence[int],
        verify: Callable[[int, dict], bool] | None = None,
    ) -> ResumePlan:
        """Resume plan for ``timesteps``: skip the completed verified prefix.

        ``verify(timestep, payload) -> bool`` can re-check the journal's
        claims against the world (e.g. emitted-file content hashes); the
        skippable prefix ends at the first timestep that is missing,
        unverifiable, or out of order.
        """
        completed: list[int] = []
        payloads: list[dict] = []
        for t in timesteps:
            payload = self.stage_payload(t, TERMINAL_STAGE)
            if payload is None:
                break
            if verify is not None and not verify(t, payload):
                record_event("journal.verify_failed", timestep=int(t))
                break
            completed.append(int(t))
            payloads.append(payload)
        remaining = tuple(int(t) for t in timesteps[len(completed):])
        return ResumePlan(tuple(completed), remaining, tuple(payloads))

    # ------------------------------------------------------- model state WAL
    def state_path(self, timestep: int) -> Path:
        return self.path.parent / f"state_t{int(timestep):06d}.npz"

    def save_state(self, timestep: int, flat: np.ndarray) -> Path:
        """Atomically persist the flat model weights after ``timestep``."""
        path = self.state_path(timestep)
        atomic_write_npz(path, {"flat": np.asarray(flat)})
        return path

    def load_state(self, timestep: int) -> np.ndarray:
        """Load (and checksum-verify) the flat weights saved for ``timestep``."""
        return read_verified_npz(self.state_path(timestep))["flat"]

    # -------------------------------------------------------------- manifest
    def manifest_path(self) -> Path:
        return self.path.parent / "resume-manifest.json"

    def write_manifest(
        self,
        *,
        reason: str,
        completed: Iterable[int],
        remaining: Iterable[int],
    ) -> Path:
        """Atomically write a human/machine-readable resume manifest.

        Emitted on graceful interruption (and harmless to write at any
        time): it names the completed prefix, what remains, and the exact
        command-level contract — re-run with ``resume`` to continue.
        """
        manifest = {
            "format": _FORMAT,
            "reason": reason,
            "journal": self.path.name,
            "completed": [int(t) for t in completed],
            "remaining": [int(t) for t in remaining],
            "config": self.config,
            "resume": "re-run the same campaign with resume enabled "
            "(repro campaign --resume) to continue from the journal",
        }
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        path = atomic_write(self.manifest_path(), lambda fh: fh.write(text.encode("utf-8")))
        record_event(
            "journal.manifest",
            path=str(path),
            reason=reason,
            completed=len(manifest["completed"]),
            remaining=len(manifest["remaining"]),
        )
        return path

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        if getattr(self, "_file", None) is not None and not self._file.closed:
            self._file.close()

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
