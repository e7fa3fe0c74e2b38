"""Model checkpointing: full and partial (last-k-layer) saves.

Partial checkpoints implement the paper's Case-2 storage scheme (Fig 5):
after last-two-layers fine-tuning, only the retrained layers differ from
the pretrained base model, so a per-timestep checkpoint needs just those
layers.  ``load_partial`` grafts such a checkpoint onto a base model.

All writes are atomic (temp file + ``os.replace``) and checksummed via
:mod:`repro.resilience.checkpoint`: a crash mid-save can no longer leave a
truncated ``.npz`` under the final name, and loading a truncated or
bit-flipped file raises :class:`repro.resilience.CheckpointCorruptionError`
naming the path and the damage instead of an opaque numpy error.
Checkpoints written before checksums existed still load.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.nn.layers import Dense
from repro.nn.network import Sequential, from_spec
from repro.resilience.checkpoint import (
    CheckpointCorruptionError,
    atomic_write_npz,
    read_verified_npz,
)

__all__ = ["save_model", "load_model", "save_partial", "load_partial"]

_SPEC_KEY = "__architecture__"
_META_KEY = "__meta__"


def _dense_arrays(model: Sequential, dense_indices: list[int]) -> dict[str, np.ndarray]:
    dense = model.dense_layers()
    arrays: dict[str, np.ndarray] = {}
    for i in dense_indices:
        arrays[f"dense{i}.weight"] = dense[i].weight.value
        arrays[f"dense{i}.bias"] = dense[i].bias.value
    return arrays


def _all_parameter_arrays(model: Sequential) -> dict[str, np.ndarray]:
    """Every layer's parameters, keyed by layer position in the pipeline.

    The full format counts every layer (``layer{i}``, ReLUs included);
    the Case-2 partial format counts Dense layers only (``dense{i}``).
    """
    arrays: dict[str, np.ndarray] = {}
    for i, layer in enumerate(model.layers):
        for p in layer.parameters():
            arrays[f"layer{i}.{p.name}"] = p.value
    return arrays


def _decode_json(path: str | Path, array: np.ndarray, label: str):
    try:
        return json.loads(bytes(np.asarray(array, dtype=np.uint8)).decode())
    except (ValueError, UnicodeDecodeError) as exc:
        raise CheckpointCorruptionError(path, f"undecodable {label}: {exc}") from exc


def save_model(path: str | Path, model: Sequential, meta: dict | None = None) -> None:
    """Save the full architecture + weights as a ``.npz`` checkpoint."""
    arrays = _all_parameter_arrays(model)
    arrays[_SPEC_KEY] = np.frombuffer(json.dumps(model.spec()).encode(), dtype=np.uint8)
    arrays[_META_KEY] = np.frombuffer(json.dumps(meta or {}).encode(), dtype=np.uint8)
    atomic_write_npz(path, arrays)


def load_model(path: str | Path) -> tuple[Sequential, dict]:
    """Load a checkpoint written by :func:`save_model`.

    Returns ``(model, meta)``.  Raises
    :class:`~repro.resilience.CheckpointCorruptionError` for truncated or
    bit-flipped files.
    """
    data = read_verified_npz(path)
    if _SPEC_KEY not in data:
        raise ValueError(f"{path}: not a full-model checkpoint (missing architecture)")
    spec = _decode_json(path, data[_SPEC_KEY], "architecture spec")
    meta = _decode_json(path, data[_META_KEY], "metadata") if _META_KEY in data else {}
    model = from_spec(spec)
    for i, layer in enumerate(model.layers):
        for p in layer.parameters():
            key = f"layer{i}.{p.name}"
            if key not in data:
                raise CheckpointCorruptionError(path, f"missing parameter {key!r}")
            p.value[...] = data[key]
    return model, meta


def save_partial(path: str | Path, model: Sequential, num_layers: int, meta: dict | None = None) -> None:
    """Save only the last ``num_layers`` Dense layers of ``model``.

    The checkpoint records which layer slots it covers so
    :func:`load_partial` can verify compatibility.
    """
    dense = model.dense_layers()
    if not (1 <= num_layers <= len(dense)):
        raise ValueError(f"num_layers must be in [1, {len(dense)}], got {num_layers}")
    indices = list(range(len(dense) - num_layers, len(dense)))
    arrays = _dense_arrays(model, indices)
    info = {
        "layer_indices": indices,
        "total_dense_layers": len(dense),
        "meta": meta or {},
    }
    arrays[_META_KEY] = np.frombuffer(json.dumps(info).encode(), dtype=np.uint8)
    atomic_write_npz(path, arrays)


def load_partial(path: str | Path, base_model: Sequential) -> dict:
    """Graft a partial checkpoint onto ``base_model`` (in place).

    ``base_model`` must have the same Dense-layer count and matching shapes
    in the covered slots.  Returns the checkpoint's ``meta`` dict.
    """
    dense = base_model.dense_layers()
    data = read_verified_npz(path)
    if _META_KEY not in data:
        raise ValueError(f"{path}: not a partial checkpoint")
    info = _decode_json(path, data[_META_KEY], "metadata")
    if "layer_indices" not in info:
        raise ValueError(f"{path}: not a partial checkpoint")
    if info["total_dense_layers"] != len(dense):
        raise ValueError(
            f"{path}: checkpoint expects {info['total_dense_layers']} dense layers, "
            f"base model has {len(dense)}"
        )
    for i in info["layer_indices"]:
        layer: Dense = dense[i]
        key_w, key_b = f"dense{i}.weight", f"dense{i}.bias"
        if key_w not in data or key_b not in data:
            raise CheckpointCorruptionError(path, f"missing arrays for dense layer {i}")
        w = data[key_w]
        b = data[key_b]
        if w.shape != layer.weight.value.shape or b.shape != layer.bias.value.shape:
            raise ValueError(f"{path}: shape mismatch at dense layer {i}")
        layer.weight.value[...] = w
        layer.bias.value[...] = b
    return info.get("meta", {})
