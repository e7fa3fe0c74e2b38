"""Sampler interface and the sampled-field container.

A :class:`SampledField` is the unstructured point cloud the paper calls the
"sampled dataset": surviving grid points' flat indices, physical positions
and scalar values, plus the source grid so void locations (the rejected
points whose values must be reconstructed) can be enumerated.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.datasets.base import TimestepField
from repro.grid import UniformGrid

__all__ = ["NonFiniteFieldError", "SampledField", "Sampler"]


class NonFiniteFieldError(ValueError):
    """A field or sample holding NaN or infinite values reached a sampler or the FCNN.

    Samplers raise it for the field they are handed; the FCNN
    reconstructor raises it for the field and sample values it trains on
    and for the sample values it predicts from, rather than training to a
    NaN loss or copying a NaN into the reconstruction.
    """


def require_finite(what: str, values: np.ndarray) -> None:
    """Raise :class:`NonFiniteFieldError`, naming ``what``, if ``values`` holds NaN or inf."""
    bad = values.size - np.count_nonzero(np.isfinite(values))
    if bad:
        raise NonFiniteFieldError(
            f"{what} has {bad} non-finite value(s) of {values.size}; "
            "sampling and reconstruction need finite values"
        )


@dataclass(frozen=True)
class SampledField:
    """An unstructured sample of a grid field (paper's ``.vtp`` payload)."""

    grid: UniformGrid
    indices: np.ndarray  # (M,) flat indices of sampled grid points, sorted
    values: np.ndarray   # (M,) scalar values at those points
    fraction: float      # requested sampling fraction (e.g. 0.01 for 1%)
    timestep: int = 0

    def __post_init__(self) -> None:
        indices = np.asarray(self.indices, dtype=np.int64)
        values = np.asarray(self.values, dtype=np.float64)
        if indices.ndim != 1 or values.ndim != 1 or indices.shape != values.shape:
            raise ValueError("indices and values must be matching 1D arrays")
        if indices.size == 0:
            raise ValueError("a SampledField needs at least one sample")
        order = np.argsort(indices)
        indices = indices[order]
        if np.any(indices[1:] == indices[:-1]):
            raise ValueError("sampled indices must be unique")
        if indices[0] < 0 or indices[-1] >= self.grid.num_points:
            raise ValueError("sampled indices out of grid range")
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "values", values[order])

    # ------------------------------------------------------------ geometry
    @property
    def num_samples(self) -> int:
        return int(self.indices.size)

    @property
    def achieved_fraction(self) -> float:
        """Fraction of grid points actually kept."""
        return self.num_samples / self.grid.num_points

    @property
    def points(self) -> np.ndarray:
        """Physical positions ``(M, 3)`` of the sampled points (cached, read-only).

        Feature assembly reads them once per training block, so they are
        computed on first use and the same non-writeable array is returned
        after that.
        """
        cached = getattr(self, "_points", None)
        if cached is None:
            cached = self.grid.index_to_position(self.grid.flat_to_multi(self.indices))
            cached.flags.writeable = False
            object.__setattr__(self, "_points", cached)
        return cached

    def void_indices(self) -> np.ndarray:
        """Flat indices of the rejected grid points (the "void locations").

        Cached on first use — the field is frozen, so the void set can
        never change, and per-timestep reconstruction asks for it on every
        call.  Treat the returned array as read-only.
        """
        cached = getattr(self, "_void_indices", None)
        if cached is None:
            mask = np.ones(self.grid.num_points, dtype=bool)
            mask[self.indices] = False
            cached = np.flatnonzero(mask)
            object.__setattr__(self, "_void_indices", cached)
        return cached

    def void_points(self) -> np.ndarray:
        """Physical positions ``(K, 3)`` of the void locations (cached, read-only).

        Returning the *same* array object every call is load-bearing for
        the fast path: :class:`repro.core.FeatureExtractor`'s geometry
        cache is keyed on query identity, so repeated reconstructions of
        one sample skip the kd-tree neighbor query entirely.
        """
        cached = getattr(self, "_void_points", None)
        if cached is None:
            cached = self.grid.index_to_position(
                self.grid.flat_to_multi(self.void_indices())
            )
            object.__setattr__(self, "_void_points", cached)
        return cached

    # ----------------------------------------------------------------- I/O
    def to_vtp(self, path: str | Path, binary: bool = True) -> None:
        """Persist as a VTK PolyData point cloud (the paper's on-disk form)."""
        from repro.io import write_vtp

        write_vtp(
            path,
            self.points,
            {"scalar": self.values, "flat_index": self.indices},
            binary=binary,
        )

    @classmethod
    def from_vtp(
        cls,
        path: str | Path,
        grid: UniformGrid,
        fraction: float | None = None,
        timestep: int = 0,
    ) -> "SampledField":
        """Load a sample written by :meth:`to_vtp` back onto its grid."""
        from repro.io import read_vtp

        points, data = read_vtp(path)
        if "flat_index" in data:
            indices = np.asarray(data["flat_index"], dtype=np.int64)
        else:
            indices = grid.multi_to_flat(grid.position_to_index(points))
        values = np.asarray(data["scalar"], dtype=np.float64)
        frac = fraction if fraction is not None else indices.size / grid.num_points
        return cls(grid=grid, indices=indices, values=values, fraction=frac, timestep=timestep)


class Sampler(abc.ABC):
    """Strategy that reduces a grid field to a :class:`SampledField`."""

    name: str = "sampler"

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)

    @abc.abstractmethod
    def select(self, field: TimestepField, fraction: float, rng: np.random.Generator) -> np.ndarray:
        """Return the flat indices of the grid points to keep."""

    def sample(self, field: TimestepField, fraction: float, seed: int | None = None) -> SampledField:
        """Sample ``fraction`` of ``field``'s grid points.

        Parameters
        ----------
        field:
            Full-resolution field at one timestep.
        fraction:
            Target fraction of points to keep, in ``(0, 1]``.
        seed:
            Override the sampler's seed for this draw (the draw is otherwise
            deterministic per (sampler seed, timestep)).

        Raises :class:`NonFiniteFieldError` if ``field`` holds NaN or
        infinite values: no criterion ranks them, and a sample must not
        carry them into reconstruction.
        """
        if not (0.0 < fraction <= 1.0):
            raise ValueError(f"sampling fraction must be in (0, 1], got {fraction}")
        budget = int(round(fraction * field.grid.num_points))
        if budget < 1:
            raise ValueError(
                f"fraction {fraction} keeps zero of {field.grid.num_points} points"
            )
        require_finite(f"field {field.name!r} at timestep {field.timestep}", field.flat)
        base_seed = self.seed if seed is None else int(seed)
        rng = np.random.default_rng((base_seed, field.timestep, budget))
        indices = np.asarray(self.select(field, fraction, rng), dtype=np.int64)
        return SampledField(
            grid=field.grid,
            indices=indices,
            values=field.flat[indices],
            fraction=float(fraction),
            timestep=field.timestep,
        )
