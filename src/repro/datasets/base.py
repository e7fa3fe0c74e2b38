"""Base machinery for analytic spatiotemporal datasets.

An :class:`AnalyticDataset` is a closed-form scalar field ``f(x, y, z, t)``
defined over normalized coordinates of a *reference domain*.  Sampling it on
a grid simply evaluates ``f`` at the grid's physical points, so the same
dataset instance serves every experiment:

* different resolutions (Fig 13 upscaling) — denser grids over the same
  domain;
* shifted domains (Fig 13) — grids whose extent overlaps the reference
  domain differently;
* different timesteps (Fig 11/12) — the ``t`` argument.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.grid import UniformGrid

__all__ = ["AnalyticDataset", "TimestepField"]

#: About how many grid points :meth:`AnalyticDataset.field` evaluates at
#: once (whole x-planes, at least one).
_FIELD_BLOCK_POINTS = 16384


@dataclass(frozen=True)
class TimestepField:
    """A scalar field materialized on a grid at one timestep."""

    grid: UniformGrid
    values: np.ndarray  # shaped grid.dims
    timestep: int
    name: str = "field"

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", self.grid.validate_field(self.values))

    @property
    def flat(self) -> np.ndarray:
        """Field values in flat (C) order, ``(N,)``."""
        return self.values.ravel()


class AnalyticDataset(abc.ABC):
    """A deterministic analytic scalar field ``f(points, t)``.

    Subclasses define :meth:`evaluate` over physical coordinates.  The
    *reference domain* (``default_grid``) fixes the coordinate normalization
    so that evaluating a finer or shifted grid probes the same underlying
    physical field.
    """

    #: short registry name, e.g. ``"hurricane"``
    name: str = "analytic"
    #: name of the scalar attribute reconstructed by default (the one the
    #: paper evaluates), e.g. ``"pressure"``
    attribute: str = "scalar"
    #: every scalar attribute the simulation carries (the paper's datasets
    #: have ~11; we model the physically coupled core set per dataset)
    attributes: tuple[str, ...] = ("scalar",)
    #: number of timesteps the reference simulation ran for
    num_timesteps: int = 1

    def __init__(self, grid: UniformGrid | None = None, seed: int = 0) -> None:
        self._grid = grid if grid is not None else self.default_grid()
        self.seed = int(seed)

    # ------------------------------------------------------------ interface
    @classmethod
    @abc.abstractmethod
    def default_grid(cls) -> UniformGrid:
        """Reference grid (paper-scale dims are documented per dataset)."""

    @abc.abstractmethod
    def evaluate(self, points: np.ndarray, t: int = 0, attribute: str | None = None) -> np.ndarray:
        """Field values at ``(N, 3)`` physical positions for timestep ``t``.

        ``attribute`` selects one of :attr:`attributes`; ``None`` means the
        default :attr:`attribute`.  The value at a point depends only on
        that point, ``t`` and the attribute, never on the other rows:
        :meth:`field` relies on it to evaluate a grid block by block.
        """

    def _check_attribute(self, attribute: str | None) -> str:
        name = attribute if attribute is not None else self.attribute
        if name not in self.attributes:
            raise ValueError(
                f"{self.name} has no attribute {name!r}; available: {list(self.attributes)}"
            )
        return name

    # ------------------------------------------------------------- plumbing
    @property
    def grid(self) -> UniformGrid:
        """The grid this instance materializes fields on by default."""
        return self._grid

    def normalized(self, points: np.ndarray) -> np.ndarray:
        """Map physical coordinates to the reference domain's unit cube.

        Values outside ``[0, 1]`` are legitimate — they address space beyond
        the reference extent (the shifted-domain upscaling experiment relies
        on this).
        """
        ref = self.default_grid()
        lo = np.asarray(ref.origin)
        span = (np.asarray(ref.dims) - 1) * np.asarray(ref.spacing)
        span = np.where(span == 0, 1.0, span)
        return (np.atleast_2d(np.asarray(points, dtype=np.float64)) - lo) / span

    def time_fraction(self, t: int) -> float:
        """Map a timestep index onto ``[0, 1]`` of the simulated evolution."""
        if self.num_timesteps <= 1:
            return 0.0
        return float(t) / float(self.num_timesteps - 1)

    def field(
        self,
        t: int = 0,
        grid: UniformGrid | None = None,
        attribute: str | None = None,
    ) -> TimestepField:
        """Materialize one attribute at timestep ``t`` on ``grid`` (or default).

        The grid is evaluated in slabs of whole x-planes (about
        ``_FIELD_BLOCK_POINTS`` points each, contiguous in flat order) into
        one output array, so the coordinates and :meth:`evaluate`'s
        temporaries are slab-sized, not grid-sized.  The slab coordinates
        are the rows of ``g.points()``, and :meth:`evaluate` works point
        by point, so the values equal ``evaluate(g.points())`` bit for bit.
        """
        g = grid if grid is not None else self._grid
        name = self._check_attribute(attribute)
        nx, ny, nz = g.dims
        plane = ny * nz
        step = max(1, _FIELD_BLOCK_POINTS // plane)
        xs = g.axis_coordinates(0)
        ys = np.repeat(g.axis_coordinates(1), nz)
        zs = np.tile(g.axis_coordinates(2), ny)
        values = np.empty(g.dims, dtype=np.float64)
        flat = values.reshape(-1)
        for i0 in range(0, nx, step):
            i1 = min(i0 + step, nx)
            planes = i1 - i0
            points = np.empty((planes * plane, 3), dtype=np.float64)
            points[:, 0] = np.repeat(xs[i0:i1], plane)
            points[:, 1] = np.tile(ys, planes)
            points[:, 2] = np.tile(zs, planes)
            flat[i0 * plane : i1 * plane] = self.evaluate(points, t=t, attribute=name)
        return TimestepField(grid=g, values=values, timestep=int(t), name=name)

    def fields(self, timesteps, grid: UniformGrid | None = None):
        """Yield :class:`TimestepField` for each timestep in ``timesteps``."""
        for t in timesteps:
            yield self.field(t=t, grid=grid)
