# hot-path
"""Workspace arenas: preallocated, reusable buffers for the training/inference fast path.

The numpy engine's hot loops (``Dense``/``ReLU`` forward-backward, the
optimizer step, chunked FCNN inference) are memory-bandwidth bound: at
batch 4096 a single ``Dense(23, 512)`` forward materializes a 16 MiB
activation, and the naive expression forms (``x @ W + b``,
``np.where(mask, x, 0)``) allocate a fresh temporary per operation per
batch.  A :class:`Workspace` removes those allocations: buffers are keyed
on ``(tag, dtype)`` and handed back to the same call site every step, so
after the first batch of an epoch the training loop runs allocation-free
(the arena reaches steady state — every subsequent request is a *hit*).

Each key owns one flat backing buffer that grows to the largest shape
ever requested under it; a request hands out a cached C-contiguous view
of its leading elements.  Arena memory therefore follows the largest
live request per tag, not the history of shapes seen (a model that
trained on 1,024-row batches and then predicts 16,384-row blocks holds
the larger buffers once, not both sets).  The price is one aliasing rule: a view stays valid only until the same tag
is requested again, at *any* shape.

Bit-exactness contract: the fast path only changes *where* results are
written, never the operations or their order, so losses and weights match
the allocating path bit for bit (IEEE sign-of-zero excepted — ``x * mask``
yields ``-0.0`` where ``np.where`` yields ``+0.0``; the values compare
equal and cannot diverge downstream).  See ``docs/PERFORMANCE.md``.

A workspace is bound to one model at a time (tags embed the layer index
assigned by :meth:`repro.nn.Sequential.attach_workspace`); sharing one
arena between two concurrently-active models aliases their buffers.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Workspace"]


class Workspace:
    """A get-or-grow buffer arena keyed on ``(tag, dtype)``.

    Parameters
    ----------
    dtype:
        Default dtype of requested buffers — the *compute* dtype of the
        fast path (:class:`repro.perf.DtypePolicy`).  ``float64`` keeps
        seed numerics; ``float32`` doubles effective memory bandwidth at
        reduced precision.
    """

    def __init__(self, dtype=np.float64) -> None:
        self.dtype = np.dtype(dtype)
        # (tag, dtype) -> flat backing buffer, grown to the largest request
        self._buffers: dict[tuple, np.ndarray] = {}
        # (tag, dtype) -> {shape: view of the current backing buffer}
        self._views: dict[tuple, dict[tuple, np.ndarray]] = {}
        # id -> view for every view handed out and still cached
        self._owned: dict[int, np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def __getstate__(self) -> dict:
        # A copy (deepcopy or pickle) starts with an empty arena: ownership
        # is keyed on the id() of this arena's views, which no copy keeps.
        state = self.__dict__.copy()
        state.update(_buffers={}, _views={}, _owned={}, hits=0, misses=0)
        return state

    def buffer(self, tag, shape, dtype=None) -> np.ndarray:
        """A C-contiguous ``shape`` view of the ``(tag, dtype)`` buffer.

        A request larger than the key's backing buffer replaces it (a
        *miss*); any request that fits is a *hit* and allocates nothing.
        The returned array is *reused*: contents are undefined on entry
        and valid only until the same tag and dtype are requested again,
        at any shape.  Callers must fully overwrite it (``out=``
        semantics).
        """
        dt = self.dtype if dtype is None else np.dtype(dtype)
        shape = tuple(int(s) for s in shape)
        key = (tag, dt)
        views = self._views.get(key)
        view = None if views is None else views.get(shape)
        if view is not None:
            self.hits += 1
            return view
        size = math.prod(shape)
        backing = self._buffers.get(key)
        if backing is None or backing.size < size:
            backing = np.empty(size, dtype=dt)
            self._buffers[key] = backing
            # Views of the outgrown buffer stop counting as arena-owned.
            for old in (views or {}).values():
                del self._owned[id(old)]
            views = self._views[key] = {}
            self.misses += 1
        else:
            self.hits += 1
        view = backing[:size].reshape(shape)
        views[shape] = view
        self._owned[id(view)] = view
        return view

    def owns(self, array: np.ndarray) -> bool:
        """True when ``array`` is a view this arena handed out (and still caches).

        Layers use this to decide whether an in-place update is safe: a
        workspace buffer may be clobbered (its producer has already been
        consumed by the time the next layer runs), a caller-owned array
        may not.  Slices or reshapes of a handed-out view are not owned.
        """
        return self._owned.get(id(array)) is array

    def preallocate(self, entries) -> None:
        """Warm the arena: ``entries`` is an iterable of ``(tag, shape[, dtype])``.

        Optional — buffers are created on demand — but warming moves every
        allocation ahead of the first timed step.
        """
        for entry in entries:  # intentional startup allocation, not steady state
            tag, shape = entry[0], entry[1]
            dtype = entry[2] if len(entry) > 2 else None
            self.buffer(tag, shape, dtype)
        # preallocation is not a miss of the steady state: reset the stats
        self.hits = 0
        self.misses = 0

    @property
    def nbytes(self) -> int:
        """Total bytes held by the arena's backing buffers."""
        return sum(buf.nbytes for buf in self._buffers.values())

    @property
    def num_buffers(self) -> int:
        """Number of backing buffers (one per ``(tag, dtype)`` key)."""
        return len(self._buffers)

    def clear(self) -> None:
        """Drop every buffer (e.g. between differently-shaped workloads)."""
        self._buffers.clear()
        self._views.clear()
        self._owned.clear()
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Workspace(dtype={self.dtype.name}, buffers={self.num_buffers}, "
            f"bytes={self.nbytes}, hits={self.hits}, misses={self.misses})"
        )
