"""Radial-basis-function reconstruction (thin-plate splines).

The paper evaluates RBFs but excludes them from the headline comparison:
"the time taken by them is much larger than the rest of the methods, and it
does not offer any noticeable improvement in reconstruction quality over
linear interpolation" (Sec III-B).  We implement them anyway so that claim
is checkable: a local RBF (scipy's ``RBFInterpolator`` restricted to a
``neighbors`` window, the only tractable form at these sample counts)
wrapped in the shared interface.
"""

from __future__ import annotations

import numpy as np

from repro.grid import UniformGrid
from repro.interpolation.base import GridInterpolator

__all__ = ["RBFInterpolator"]


class RBFInterpolator(GridInterpolator):
    """Thin-plate-spline RBF reconstruction with a local neighborhood."""

    name = "rbf"

    def __init__(
        self,
        kernel: str = "thin_plate_spline",
        neighbors: int | None = 32,
        smoothing: float = 0.0,
        degree: int | None = None,
    ) -> None:
        self.kernel = kernel
        self.neighbors = neighbors
        self.smoothing = float(smoothing)
        self.degree = degree

    def interpolate(
        self,
        points: np.ndarray,
        values: np.ndarray,
        query: np.ndarray,
        grid: UniformGrid,
    ) -> np.ndarray:
        from scipy.interpolate import RBFInterpolator as _SciPyRBF

        points = np.asarray(points, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        neighbors = self.neighbors
        if neighbors is not None:
            neighbors = min(neighbors, len(points))
        rbf = _SciPyRBF(
            points,
            values,
            kernel=self.kernel,
            neighbors=neighbors,
            smoothing=self.smoothing,
            degree=self.degree,
        )
        return rbf(np.atleast_2d(np.asarray(query, dtype=np.float64)))
