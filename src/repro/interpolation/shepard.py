"""Modified Shepard (local inverse-distance-weighted) reconstruction.

The classic Shepard method weights *every* sample by inverse distance; the
modified variant (Franke & Nielson) restricts each query to its k nearest
samples and uses the Franke–Little weight

    w_i = ((R - d_i) / (R * d_i))^2,   R = distance to the k-th neighbor,

which decays smoothly to zero at the neighborhood boundary, trading the
global method's O(M) per-query cost for a local kd-tree lookup.
"""

from __future__ import annotations

import numpy as np

from repro.grid import UniformGrid
from repro.interpolation.base import GridInterpolator

__all__ = ["ModifiedShepardInterpolator"]


class ModifiedShepardInterpolator(GridInterpolator):
    """Local IDW with the Franke–Little weighting."""

    name = "shepard"

    def __init__(self, num_neighbors: int = 8, power: float = 2.0, workers: int = -1) -> None:
        if num_neighbors < 2:
            raise ValueError(f"modified Shepard needs >= 2 neighbors, got {num_neighbors}")
        self.num_neighbors = int(num_neighbors)
        self.power = float(power)
        self.workers = int(workers)

    def interpolate(
        self,
        points: np.ndarray,
        values: np.ndarray,
        query: np.ndarray,
        grid: UniformGrid,
    ) -> np.ndarray:
        from scipy.spatial import cKDTree

        values = np.asarray(values, dtype=np.float64)
        k = min(self.num_neighbors, len(points))
        tree = cKDTree(points)
        dist, idx = tree.query(query, k=k, workers=self.workers)
        if k == 1:
            return values[idx]

        # R: radius of the local neighborhood (distance to farthest of the k).
        radius = dist[:, -1:]
        # Exact hits would divide by zero; detect and patch afterwards.
        safe = np.maximum(dist, 1e-300)
        w = np.maximum(radius - dist, 0.0) / (radius * safe)
        w = w**self.power

        wsum = w.sum(axis=1)
        degenerate = wsum <= 0
        if degenerate.any():
            # All k neighbors equidistant at R: fall back to plain averaging.
            w[degenerate] = 1.0
            wsum = w.sum(axis=1)
        result = (w * values[idx]).sum(axis=1) / wsum

        exact = dist[:, 0] < 1e-12
        if exact.any():
            result[exact] = values[idx[exact, 0]]
        return result
