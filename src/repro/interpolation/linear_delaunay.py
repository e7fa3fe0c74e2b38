"""Piecewise-linear interpolation over a Delaunay tetrahedralization.

The paper's strongest rule-based baseline.  Two execution modes reproduce
the paper's two implementations (Fig 10):

* ``mode="naive"`` — a sequential pure-Python loop over query points:
  locate the containing simplex, solve for barycentric coordinates, blend.
  This is the paper's "initial sequential implementation in Python" whose
  cost blows up with sample count.
* ``mode="vectorized"`` — one batched simplex location plus fully
  vectorized barycentric transforms; this plays the role of the paper's
  parallel C++/CGAL/OpenMP implementation (and can additionally be chunked
  across processes via :mod:`repro.parallel`).

Queries outside the convex hull of the samples have no containing simplex;
both modes fall back to nearest-neighbor there, so reconstructions are
defined on the whole grid.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.grid import UniformGrid
from repro.interpolation.base import GridInterpolator

if TYPE_CHECKING:
    from scipy.spatial import Delaunay

__all__ = ["DelaunayLinearInterpolator"]

_MODES = ("vectorized", "naive")


class DelaunayLinearInterpolator(GridInterpolator):
    """Delaunay-based piecewise-linear (barycentric) reconstruction."""

    name = "linear"

    def __init__(self, mode: str = "vectorized") -> None:
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        self.mode = mode
        if mode == "naive":
            self.name = "linear-naive"

    # ------------------------------------------------------------- plumbing
    def _triangulate(self, points: np.ndarray) -> Delaunay:
        from scipy.spatial import Delaunay

        # QJ joggles degenerate (cospherical/collinear) inputs instead of
        # failing; grid-aligned samples frequently need it.
        try:
            return Delaunay(points)
        except Exception:
            return Delaunay(points, qhull_options="QJ")

    def interpolate(
        self,
        points: np.ndarray,
        values: np.ndarray,
        query: np.ndarray,
        grid: UniformGrid,
    ) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        query = np.atleast_2d(np.asarray(query, dtype=np.float64))
        if len(points) < 5:
            # Too few samples for a 3D triangulation: nearest fallback.
            return self._nearest_fill(points, values, query, np.ones(len(query), bool))

        tri = self._triangulate(points)
        if self.mode == "naive":
            result = self._interpolate_naive(tri, values, query)
        else:
            result = self._interpolate_vectorized(tri, values, query)

        outside = np.isnan(result)
        if outside.any():
            result[outside] = self._nearest_fill(points, values, query[outside], None)
        return result

    @staticmethod
    def _nearest_fill(points, values, query, _mask) -> np.ndarray:
        from scipy.spatial import cKDTree

        tree = cKDTree(points)
        _, idx = tree.query(query, k=1)
        return np.asarray(values)[idx]

    # ----------------------------------------------------------- vectorized
    @staticmethod
    def _interpolate_vectorized(tri: Delaunay, values: np.ndarray, query: np.ndarray) -> np.ndarray:
        simplex = tri.find_simplex(query)
        result = np.full(len(query), np.nan)
        inside = simplex >= 0
        if not inside.any():
            return result
        s = simplex[inside]
        # Barycentric coordinates from the precomputed affine transforms:
        # b = T^{-1} (q - r),  last coordinate = 1 - sum(b).
        transform = tri.transform[s]  # (K, 4, 3)
        delta = query[inside] - transform[:, 3, :]
        bary = np.einsum("kij,kj->ki", transform[:, :3, :], delta)
        weights = np.concatenate([bary, 1.0 - bary.sum(axis=1, keepdims=True)], axis=1)
        verts = tri.simplices[s]  # (K, 4)
        result[inside] = np.einsum("ki,ki->k", weights, values[verts])
        return result

    # ---------------------------------------------------------------- naive
    @staticmethod
    def _interpolate_naive(tri: Delaunay, values: np.ndarray, query: np.ndarray) -> np.ndarray:
        # Deliberately sequential: one simplex lookup and one small linear
        # solve per query point, mirroring the paper's slow Python baseline.
        result = np.full(len(query), np.nan)
        for i in range(len(query)):
            q = query[i]
            s = int(tri.find_simplex(q))
            if s < 0:
                continue
            verts = tri.simplices[s]
            corners = tri.points[verts]
            # Solve for barycentric coordinates the long way: columns of the
            # 4x4 system are the homogeneous simplex corners [x, y, z, 1]^T.
            m = np.vstack([corners.T, np.ones((1, 4))])
            rhs = np.append(q, 1.0)
            try:
                bary = np.linalg.solve(m, rhs)
            except np.linalg.LinAlgError:
                continue
            result[i] = float(np.dot(bary, values[verts]))
        return result
