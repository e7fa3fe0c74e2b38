"""Nearest-neighbor reconstruction.

Assigns each query point the value of its closest sample (kd-tree lookup).
Fast — the paper's speed reference among rule-based methods — but blocky,
with discontinuities at Voronoi boundaries, hence consistently low SNR.
"""

from __future__ import annotations

import numpy as np

from repro.grid import UniformGrid
from repro.interpolation.base import GridInterpolator

__all__ = ["NearestNeighborInterpolator"]


class NearestNeighborInterpolator(GridInterpolator):
    """Piecewise-constant (Voronoi-cell) reconstruction."""

    name = "nearest"

    def __init__(self, workers: int = -1) -> None:
        self.workers = int(workers)

    def interpolate(
        self,
        points: np.ndarray,
        values: np.ndarray,
        query: np.ndarray,
        grid: UniformGrid,
    ) -> np.ndarray:
        from scipy.spatial import cKDTree

        tree = cKDTree(points)
        _, idx = tree.query(query, k=1, workers=self.workers)
        return np.asarray(values)[idx]
