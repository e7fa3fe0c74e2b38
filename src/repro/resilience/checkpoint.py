"""Atomic, checksummed ``.npz`` checkpoints and full training-state capture.

Two layers live here:

* **Archive primitives** — :func:`atomic_write` commits any file via
  write-to-temp + ``fsync`` + ``os.replace`` so a crash mid-save can never
  leave a truncated file under the final name; :func:`atomic_write_npz`
  writes an ``.npz`` through it and embeds a SHA-256 content checksum;
  :func:`read_verified_npz` re-derives and compares it, turning
  truncation, bit-flips and partial writes into a
  :class:`CheckpointCorruptionError` instead of an opaque numpy/zipfile
  error.
* **Training state** — :func:`save_training_checkpoint` captures everything
  a :class:`repro.nn.Trainer` run needs to continue *bit-exactly*: model
  parameters, optimizer state (Adam moments, step count, learning rate),
  the shuffling RNG's bit-generator state, and the per-epoch loss history.
  :class:`TrainingCheckpoint.restore` puts it all back.

This module deliberately imports nothing from the rest of ``repro`` so the
nn/parallel/experiment layers can depend on it without cycles.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable

import numpy as np

__all__ = [
    "CheckpointCorruptionError",
    "CheckpointConfig",
    "TrainingCheckpoint",
    "atomic_write",
    "atomic_write_npz",
    "read_verified_npz",
    "normalize_npz_path",
    "save_training_checkpoint",
    "load_training_checkpoint",
]

#: npz entry holding the hex SHA-256 of every other entry.
CHECKSUM_KEY = "__checksum__"
#: npz entry holding the JSON-encoded non-array training state.
STATE_KEY = "__state__"

_PARAM_PREFIX = "param."
_OPT_PREFIX = "opt."


class CheckpointCorruptionError(RuntimeError):
    """A checkpoint file exists but cannot be trusted.

    Raised for truncated archives, bit-flipped payloads (checksum
    mismatch), and structurally incomplete checkpoints, always naming the
    offending path and the reason.
    """

    def __init__(self, path: str | Path, reason: str) -> None:
        self.path = Path(path)
        self.reason = reason
        super().__init__(f"{path}: corrupted checkpoint ({reason})")


def normalize_npz_path(path: str | Path) -> Path:
    """The on-disk name numpy would use: ``.npz`` appended when missing."""
    path = Path(path)
    if not path.name.endswith(".npz"):
        path = path.with_name(path.name + ".npz")
    return path


def _digest(arrays: dict[str, np.ndarray]) -> str:
    """Order-independent SHA-256 over entry names, dtypes, shapes, bytes."""
    h = hashlib.sha256()
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name])
        h.update(name.encode())
        h.update(str(a.dtype).encode())
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _json_array(payload) -> np.ndarray:
    return np.frombuffer(json.dumps(payload).encode(), dtype=np.uint8)


def _json_load(array: np.ndarray):
    return json.loads(bytes(np.asarray(array, dtype=np.uint8)).decode())


def atomic_write(path: str | Path, write: Callable[[BinaryIO], object]) -> Path:
    """Commit the file at ``path`` that ``write(fh)`` serializes, atomically.

    ``write`` fills a binary temp file opened in ``path``'s directory; the
    file is then flushed, synced with ``os.fsync`` and promoted with
    ``os.replace``, so readers see either the previous complete file or
    the new one.  If anything raises, the temp file is removed and
    ``path`` is left as it was.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent) or ".", prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return path


def atomic_write_npz(
    path: str | Path,
    arrays: dict[str, np.ndarray],
    compressed: bool = True,
) -> Path:
    """Write ``arrays`` as a checksummed ``.npz``, atomically.

    The archive goes through :func:`atomic_write`, so readers either see
    the previous complete checkpoint or the new complete one — never a
    partial write.  Returns the final path (with ``.npz`` appended when
    missing, matching ``np.savez`` semantics).
    """
    path = normalize_npz_path(path)
    arrays = dict(arrays)
    if CHECKSUM_KEY in arrays:
        raise ValueError(f"array name {CHECKSUM_KEY!r} is reserved")
    arrays[CHECKSUM_KEY] = np.frombuffer(_digest(arrays).encode(), dtype=np.uint8)
    writer = np.savez_compressed if compressed else np.savez
    return atomic_write(path, lambda fh: writer(fh, **arrays))


def read_verified_npz(path: str | Path) -> dict[str, np.ndarray]:
    """Load an ``.npz``, verifying its embedded checksum when present.

    Archives written before checksums existed (no ``__checksum__`` entry)
    load as-is; any unreadable or mismatching archive raises
    :class:`CheckpointCorruptionError`.
    """
    path = normalize_npz_path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    try:
        with np.load(str(path)) as data:
            arrays = {name: np.array(data[name]) for name in data.files}
    except (
        ValueError,
        OSError,
        EOFError,
        KeyError,
        NotImplementedError,
        zipfile.BadZipFile,
        zlib.error,
    ) as exc:
        # Damage surfaces differently depending on where it lands: zip
        # directory (BadZipFile), member payload (zlib.error / CRC
        # BadZipFile), npy header (ValueError), short reads (EOFError),
        # a flipped compression-method field (NotImplementedError).
        raise CheckpointCorruptionError(path, f"unreadable archive: {exc}") from exc
    recorded_raw = arrays.pop(CHECKSUM_KEY, None)
    if recorded_raw is not None:
        recorded = bytes(np.asarray(recorded_raw, dtype=np.uint8)).decode(
            "ascii", errors="replace"
        )
        actual = _digest(arrays)
        if recorded != actual:
            raise CheckpointCorruptionError(
                path, f"checksum mismatch: recorded {recorded[:12]}…, actual {actual[:12]}…"
            )
    return arrays


# ---------------------------------------------------------------------------
# training-state checkpoints


@dataclass
class CheckpointConfig:
    """Periodic-checkpoint policy for :meth:`repro.nn.Trainer.fit`.

    Parameters
    ----------
    path:
        Checkpoint file (one file, atomically replaced on every save).
    every:
        Save after every ``every`` completed epochs (and at the final one).
    """

    path: str | Path
    every: int = 1

    def __post_init__(self) -> None:
        if self.every < 1:
            raise ValueError(f"checkpoint interval must be >= 1, got {self.every}")
        self.path = normalize_npz_path(self.path)

    def due(self, completed_epochs: int, total_epochs: int) -> bool:
        return completed_epochs % self.every == 0 or completed_epochs == total_epochs


@dataclass
class TrainingCheckpoint:
    """One training run's full resumable state, as loaded from disk."""

    epoch: int                              # completed epochs
    parameters: dict[str, np.ndarray]       # "layer{i}.{name}" -> value
    optimizer_state: dict                   # Adam.state_dict() payload
    rng_state: dict                         # Generator.bit_generator.state
    history: dict[str, list[float]]         # TrainingHistory field lists
    meta: dict = field(default_factory=dict)

    def restore(self, model, optimizer, rng: np.random.Generator) -> None:
        """Load this state into a live model/optimizer/generator, in place."""
        for i, layer in enumerate(model.layers):
            for p in layer.parameters():
                key = f"{_PARAM_PREFIX}layer{i}.{p.name}"
                if key not in self.parameters:
                    raise ValueError(
                        f"checkpoint does not cover parameter layer{i}.{p.name}; "
                        "was it saved from a different architecture?"
                    )
                stored = self.parameters[key]
                if stored.shape != p.value.shape:
                    raise ValueError(
                        f"checkpoint shape mismatch at layer{i}.{p.name}: "
                        f"stored {stored.shape}, model has {p.value.shape}"
                    )
                p.value[...] = stored
        optimizer.load_state_dict(self.optimizer_state)
        rng.bit_generator.state = self.rng_state


def save_training_checkpoint(
    path: str | Path,
    *,
    model,
    optimizer,
    rng: np.random.Generator,
    history,
    epoch: int,
    meta: dict | None = None,
) -> Path:
    """Atomically persist a mid-run training state (see module docstring)."""
    arrays: dict[str, np.ndarray] = {}
    for i, layer in enumerate(model.layers):
        for p in layer.parameters():
            arrays[f"{_PARAM_PREFIX}layer{i}.{p.name}"] = p.value
    opt_state = optimizer.state_dict()
    opt_scalars: dict = {}
    array_fields: dict[str, int] = {}
    for key, value in opt_state.items():
        if isinstance(value, list) and all(isinstance(v, np.ndarray) for v in value):
            array_fields[key] = len(value)
            for j, arr in enumerate(value):
                arrays[f"{_OPT_PREFIX}{key}.{j}"] = arr
        else:
            opt_scalars[key] = value
    state = {
        "format": 1,
        "epoch": int(epoch),
        "rng_state": rng.bit_generator.state,
        "optimizer": {"scalars": opt_scalars, "array_fields": array_fields},
        "history": {
            "train_loss": [float(v) for v in history.train_loss],
            "val_loss": [float(v) for v in history.val_loss],
            "epoch_seconds": [float(v) for v in history.epoch_seconds],
        },
        "meta": meta or {},
    }
    arrays[STATE_KEY] = _json_array(state)
    return atomic_write_npz(path, arrays)


def load_training_checkpoint(path: str | Path) -> TrainingCheckpoint:
    """Read and verify a checkpoint written by :func:`save_training_checkpoint`."""
    arrays = read_verified_npz(path)
    if STATE_KEY not in arrays:
        raise CheckpointCorruptionError(path, "missing training-state record")
    try:
        state = _json_load(arrays[STATE_KEY])
    except (ValueError, UnicodeDecodeError) as exc:
        raise CheckpointCorruptionError(path, f"undecodable training state: {exc}") from exc
    for required in ("epoch", "rng_state", "optimizer", "history"):
        if required not in state:
            raise CheckpointCorruptionError(path, f"training state lacks {required!r}")

    optimizer_state = dict(state["optimizer"].get("scalars", {}))
    for key, count in state["optimizer"].get("array_fields", {}).items():
        entries = []
        for j in range(int(count)):
            arr_key = f"{_OPT_PREFIX}{key}.{j}"
            if arr_key not in arrays:
                raise CheckpointCorruptionError(path, f"missing optimizer array {arr_key!r}")
            entries.append(arrays[arr_key])
        optimizer_state[key] = entries

    parameters = {k: v for k, v in arrays.items() if k.startswith(_PARAM_PREFIX)}
    if not parameters:
        raise CheckpointCorruptionError(path, "no model parameters recorded")
    history = state["history"]
    return TrainingCheckpoint(
        epoch=int(state["epoch"]),
        parameters=parameters,
        optimizer_state=optimizer_state,
        rng_state=state["rng_state"],
        history={
            "train_loss": list(history.get("train_loss", [])),
            "val_loss": list(history.get("val_loss", [])),
            "epoch_seconds": list(history.get("epoch_seconds", [])),
        },
        meta=dict(state.get("meta", {})),
    )
