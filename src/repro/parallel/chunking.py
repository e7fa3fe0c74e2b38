"""Spatial chunking of grids and index sets for parallel reconstruction."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.grid import UniformGrid

__all__ = ["GridChunk", "aligned_chunks", "chunk_indices", "split_grid"]


@dataclass(frozen=True)
class GridChunk:
    """A contiguous slab of a grid along one axis."""

    axis: int
    start: int   # inclusive slab start index along `axis`
    stop: int    # exclusive slab end
    flat_indices: np.ndarray  # flat indices of the slab's grid points


def aligned_chunks(total: int, num_chunks: int, align: int) -> list[tuple[int, int]]:
    """Split ``[0, total)`` into chunks whose boundaries are multiples of ``align``.

    Serial prediction blocks start at absolute multiples of ``align``
    (the FCNN predict block, ``max(batch_size, 16384)``); aligned chunk
    boundaries keep the union of per-chunk blocks identical to the serial
    block sequence, which keeps the matmul shapes — and the floats —
    bit-identical.  The warm campaign pool (:mod:`repro.perf.campaign`)
    splits its reconstruct tasks this way.
    """
    if align < 1:
        raise ValueError(f"align must be >= 1, got {align}")
    if total <= 0:
        return []
    max_chunks = max(1, math.ceil(total / align))
    num_chunks = max(1, min(int(num_chunks), max_chunks))
    per = math.ceil(total / num_chunks / align) * align
    return [(start, min(start + per, total)) for start in range(0, total, per)]


def chunk_indices(n: int, num_chunks: int) -> list[np.ndarray]:
    """Split ``range(n)`` into ``num_chunks`` near-equal contiguous pieces."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if num_chunks < 1:
        raise ValueError(f"num_chunks must be >= 1, got {num_chunks}")
    bounds = np.linspace(0, n, num_chunks + 1).astype(np.int64)
    return [np.arange(bounds[i], bounds[i + 1]) for i in range(num_chunks) if bounds[i + 1] > bounds[i]]


def split_grid(grid: UniformGrid, num_chunks: int, axis: int | None = None) -> list[GridChunk]:
    """Decompose a grid into slabs along its longest (or given) axis.

    Slabs are contiguous in index space, so each worker's query points are
    spatially compact — the kd-tree/Delaunay locality the decomposition is
    meant to exploit.
    """
    if num_chunks < 1:
        raise ValueError(f"num_chunks must be >= 1, got {num_chunks}")
    if axis is None:
        axis = int(np.argmax(grid.dims))
    if axis not in (0, 1, 2):
        raise ValueError(f"axis must be 0, 1 or 2, got {axis}")

    n_axis = grid.dims[axis]
    bounds = np.linspace(0, n_axis, min(num_chunks, n_axis) + 1).astype(np.int64)
    all_flat = np.arange(grid.num_points).reshape(grid.dims)

    chunks: list[GridChunk] = []
    for i in range(len(bounds) - 1):
        start, stop = int(bounds[i]), int(bounds[i + 1])
        if stop <= start:
            continue
        slicer: list[slice] = [slice(None)] * 3
        slicer[axis] = slice(start, stop)
        flat = all_flat[tuple(slicer)].ravel()
        chunks.append(GridChunk(axis=axis, start=start, stop=stop, flat_indices=flat))
    return chunks
