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

    Subclasses write each field once, as :meth:`formula` over coordinates
    normalized to the *reference domain* (``default_grid``), so that
    evaluating a finer or shifted grid probes the same underlying physical
    field.  The formula must be elementwise over ``x, y, z`` arrays that
    broadcast against each other: :meth:`evaluate` passes three ``(N,)``
    point columns, while :meth:`field` passes one grid slab's axis vectors
    shaped ``(planes, 1, 1)``, ``(1, ny, 1)`` and ``(1, 1, nz)``, so a term
    of two coordinates is computed once per grid line of the slab, not once
    per point.  Both give the same bits because every output element goes
    through the same operations on the same coordinates in the same order;
    a formula keeps that by never mixing elements (no reductions, no sorts)
    and by building accumulators in the operands' broadcast shape.
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
    def formula(
        self, x: np.ndarray, y: np.ndarray, z: np.ndarray, tau: float, attribute: str
    ) -> np.ndarray:
        """One attribute's values at normalized coordinates ``x, y, z``.

        ``x``, ``y`` and ``z`` broadcast against each other and the result
        has their broadcast shape; ``tau`` is :meth:`time_fraction` of the
        timestep and ``attribute`` one of :attr:`attributes`.
        """

    def evaluate(self, points: np.ndarray, t: int = 0, attribute: str | None = None) -> np.ndarray:
        """Field values at ``(N, 3)`` physical positions for timestep ``t``.

        ``attribute`` selects one of :attr:`attributes`; ``None`` means the
        default :attr:`attribute`.
        """
        name = self._check_attribute(attribute)
        p = self.normalized(points)
        return self.formula(p[:, 0], p[:, 1], p[:, 2], self.time_fraction(t), name)

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
        lo, span = self._reference_frame()
        return (np.atleast_2d(np.asarray(points, dtype=np.float64)) - lo) / span

    def _reference_frame(self) -> tuple[np.ndarray, np.ndarray]:
        """Origin and extent (``1`` on flat axes) of the reference domain."""
        ref = self.default_grid()
        lo = np.asarray(ref.origin)
        span = (np.asarray(ref.dims) - 1) * np.asarray(ref.spacing)
        return lo, np.where(span == 0, 1.0, span)

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

        Each axis is normalized once, as :meth:`normalized` normalizes a
        point column, and the grid is evaluated in slabs of whole x-planes
        (about ``_FIELD_BLOCK_POINTS`` points each) by passing
        :meth:`formula` the slab's axis vectors, which broadcast to the
        slab.  The temporaries are slab-sized, not grid-sized, and the
        values equal ``evaluate(g.points())`` bit for bit.
        """
        g = grid if grid is not None else self._grid
        name = self._check_attribute(attribute)
        tau = self.time_fraction(t)
        nx, ny, nz = g.dims
        lo, span = self._reference_frame()
        xs, ys, zs = ((g.axis_coordinates(a) - lo[a]) / span[a] for a in range(3))
        ys, zs = ys.reshape(1, ny, 1), zs.reshape(1, 1, nz)
        step = max(1, _FIELD_BLOCK_POINTS // (ny * nz))
        values = np.empty(g.dims, dtype=np.float64)
        for i0 in range(0, nx, step):
            i1 = min(i0 + step, nx)
            values[i0:i1] = self.formula(xs[i0:i1, None, None], ys, zs, tau, name)
        return TimestepField(grid=g, values=values, timestep=int(t), name=name)

    def fields(self, timesteps, grid: UniformGrid | None = None):
        """Yield :class:`TimestepField` for each timestep in ``timesteps``."""
        for t in timesteps:
            yield self.field(t=t, grid=grid)
