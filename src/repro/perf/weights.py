"""Flat-packed weight snapshots.

The campaign's warm reconstruction pool (:mod:`repro.perf.campaign`)
ships each published timestep's model weights to its persistent workers
as one flat float64 vector per model in shared memory; workers write it
back into their warm networks with :func:`restore_weights`.

The same flat layout is what the serve registry stores per timestep and
what callers hash, ship or diff when one vector is more convenient than
per-parameter arrays.  In-process rollback is a different primitive:
:meth:`repro.nn.Sequential.snapshot` copies each parameter array and
builds no :class:`WeightSnapshot`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["WeightSnapshot", "snapshot_weights", "restore_weights"]


@dataclass(frozen=True)
class WeightSnapshot:
    """One network's learned state as a single flat float64 vector.

    ``data`` concatenates every parameter in :meth:`Sequential.parameters`
    order; ``shapes`` and ``names`` let :func:`restore_weights` unflatten it
    back, and ``trainable`` preserves Case-2 freeze flags.
    """

    data: np.ndarray                  # (W,) float64, read-only by convention
    shapes: tuple[tuple[int, ...], ...]
    names: tuple[str, ...]
    trainable: tuple[bool, ...]

    @property
    def num_weights(self) -> int:
        return int(self.data.size)


def snapshot_weights(network) -> WeightSnapshot:
    """Flatten a :class:`repro.nn.Sequential`'s parameters into one vector."""
    params = network.parameters()
    if not params:
        raise ValueError("network has no parameters to snapshot")
    data = np.concatenate([np.asarray(p.value, dtype=np.float64).ravel() for p in params])
    return WeightSnapshot(
        data=data,
        shapes=tuple(tuple(p.value.shape) for p in params),
        names=tuple(p.name for p in params),
        trainable=tuple(bool(p.trainable) for p in params),
    )


def restore_weights(network, snapshot: WeightSnapshot | np.ndarray) -> None:
    """Write a snapshot (or a bare flat vector) back into ``network`` in place.

    A bare ``np.ndarray`` restores values only (freeze flags untouched) —
    the shape bookkeeping comes from the network itself.  Parameter count
    and total size must match exactly.
    """
    params = network.parameters()
    flat = snapshot.data if isinstance(snapshot, WeightSnapshot) else np.asarray(snapshot)
    total = sum(p.size for p in params)
    if flat.size != total:
        raise ValueError(f"flat vector has {flat.size} weights, network has {total}")
    if isinstance(snapshot, WeightSnapshot) and len(snapshot.shapes) != len(params):
        raise ValueError(
            f"snapshot has {len(snapshot.shapes)} parameters, network has {len(params)}"
        )
    offset = 0
    for i, p in enumerate(params):
        n = p.size
        p.value[...] = flat[offset : offset + n].reshape(p.value.shape)
        if isinstance(snapshot, WeightSnapshot):
            p.trainable = bool(snapshot.trainable[i])
        p.zero_grad()
        offset += n
