"""Finite-difference gradients on uniform grids.

The FCNN's output layer predicts the scalar value *and* its x/y/z gradients
(Sec III-D of the paper); the gradient targets are computed from the
full-resolution field available at training time.  The multi-criteria
sampler also uses gradient magnitude as an importance criterion.
"""

from __future__ import annotations

import numpy as np

from repro.grid.uniform import UniformGrid

__all__ = ["field_gradients", "gradient_magnitude"]


def field_gradients(grid: UniformGrid, values: np.ndarray) -> np.ndarray:
    """Central-difference gradients of a scalar field.

    Parameters
    ----------
    grid:
        The grid the field lives on (provides physical spacing).
    values:
        Scalar field, flat ``(N,)`` or shaped ``grid.dims``.

    Returns
    -------
    ``(N, 3)`` array of ``(d/dx, d/dy, d/dz)`` per grid point, in flat
    (C) order.  Axes with a single grid point get zero gradient.
    """
    field = grid.validate_field(values).astype(np.float64, copy=False)
    grads = np.zeros((grid.num_points, 3), dtype=np.float64)
    for axis in range(3):
        if grid.dims[axis] == 1:
            continue
        g = np.gradient(field, grid.spacing[axis], axis=axis)
        grads[:, axis] = g.ravel()
    return grads


def gradient_magnitude(grid: UniformGrid, values: np.ndarray) -> np.ndarray:
    """Euclidean norm of the per-point gradient, flat ``(N,)`` array.

    Equals ``np.linalg.norm(field_gradients(grid, values), axis=1)`` bit
    for bit — the squares are added in axis order, as the norm's row
    reduction adds them — without the two ``(N, 3)`` arrays: each axis's
    gradient is squared in place and added into one ``(N,)`` buffer.
    """
    field = grid.validate_field(values).astype(np.float64, copy=False)
    total = np.zeros(grid.num_points, dtype=np.float64)
    for axis in range(3):
        if grid.dims[axis] == 1:
            continue  # zero gradient: adding its square changes nothing
        g = np.gradient(field, grid.spacing[axis], axis=axis).ravel()
        total += np.multiply(g, g, out=g)
    return np.sqrt(total, out=total)
