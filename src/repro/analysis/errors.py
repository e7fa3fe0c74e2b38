"""Where-and-why error diagnostics for reconstructions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.grid import UniformGrid
from repro.sampling.base import SampledField

__all__ = [
    "ErrorSummary",
    "error_field",
    "error_summary",
    "error_vs_sample_distance",
    "error_by_value_band",
    "worst_regions",
]


def error_field(original: np.ndarray, reconstructed: np.ndarray) -> np.ndarray:
    """Signed error ``reconstructed - original`` (same shape as inputs)."""
    a = np.asarray(original, dtype=np.float64)
    b = np.asarray(reconstructed, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return b - a


@dataclass(frozen=True)
class ErrorSummary:
    """Distribution statistics of the signed error."""

    mean: float       # bias
    std: float
    rmse: float
    mae: float
    p95_abs: float    # 95th percentile of |error|
    max_abs: float

    def as_dict(self) -> dict[str, float]:
        return {
            "mean": self.mean,
            "std": self.std,
            "rmse": self.rmse,
            "mae": self.mae,
            "p95_abs": self.p95_abs,
            "max_abs": self.max_abs,
        }


def error_summary(original: np.ndarray, reconstructed: np.ndarray) -> ErrorSummary:
    """Summarize the signed-error distribution."""
    err = error_field(original, reconstructed).ravel()
    if err.size == 0:
        raise ValueError("cannot summarize empty fields")
    abs_err = np.abs(err)
    return ErrorSummary(
        mean=float(err.mean()),
        std=float(err.std()),
        rmse=float(np.sqrt(np.mean(err**2))),
        mae=float(abs_err.mean()),
        p95_abs=float(np.percentile(abs_err, 95)),
        max_abs=float(abs_err.max()),
    )


def error_vs_sample_distance(
    original: np.ndarray,
    reconstructed: np.ndarray,
    sample: SampledField,
    num_bins: int = 8,
) -> list[dict]:
    """RMSE binned by distance to the nearest sampled point.

    Returns one record per non-empty bin: ``{"distance": bin center,
    "rmse": ..., "count": ...}``, distances in physical units.  Bin 0
    contains the sampled points themselves (zero error when the grids
    match, a useful self-check).
    """
    if num_bins < 2:
        raise ValueError(f"need at least 2 bins, got {num_bins}")
    from scipy.spatial import cKDTree

    grid = sample.grid
    err = error_field(grid.validate_field(original), grid.validate_field(reconstructed)).ravel()
    dist, _ = cKDTree(sample.points).query(grid.points(), k=1)

    edges = np.linspace(0.0, float(dist.max()) + 1e-12, num_bins + 1)
    which = np.clip(np.digitize(dist, edges[1:-1]), 0, num_bins - 1)
    rows = []
    for b in range(num_bins):
        members = which == b
        if not members.any():
            continue
        rows.append(
            {
                "distance": float(0.5 * (edges[b] + edges[b + 1])),
                "rmse": float(np.sqrt(np.mean(err[members] ** 2))),
                "count": int(members.sum()),
            }
        )
    return rows


def error_by_value_band(
    original: np.ndarray,
    reconstructed: np.ndarray,
    num_bands: int = 8,
) -> list[dict]:
    """RMSE binned by the original field's value.

    Exposes feature-selective failure: e.g. high error in the lowest
    pressure band means the hurricane eye reconstructs poorly even when
    global SNR looks fine.
    """
    if num_bands < 2:
        raise ValueError(f"need at least 2 bands, got {num_bands}")
    a = np.asarray(original, dtype=np.float64).ravel()
    err = error_field(original, reconstructed).ravel()
    edges = np.linspace(a.min(), a.max() + 1e-12, num_bands + 1)
    which = np.clip(np.digitize(a, edges[1:-1]), 0, num_bands - 1)
    rows = []
    for b in range(num_bands):
        members = which == b
        if not members.any():
            continue
        rows.append(
            {
                "value_lo": float(edges[b]),
                "value_hi": float(edges[b + 1]),
                "rmse": float(np.sqrt(np.mean(err[members] ** 2))),
                "count": int(members.sum()),
            }
        )
    return rows


def worst_regions(
    grid: UniformGrid,
    original: np.ndarray,
    reconstructed: np.ndarray,
    blocks: tuple[int, int, int] = (4, 4, 2),
    top_k: int = 5,
) -> list[dict]:
    """The ``top_k`` spatial blocks with the highest RMSE.

    Each record carries the block's index ranges and RMSE — the triage list
    for "where should I look first".
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    err = error_field(grid.validate_field(original), grid.validate_field(reconstructed))
    rows = []
    for bx in range(min(blocks[0], grid.dims[0])):
        x0 = bx * grid.dims[0] // blocks[0]
        x1 = (bx + 1) * grid.dims[0] // blocks[0]
        if x1 <= x0:
            continue
        for by in range(min(blocks[1], grid.dims[1])):
            y0 = by * grid.dims[1] // blocks[1]
            y1 = (by + 1) * grid.dims[1] // blocks[1]
            if y1 <= y0:
                continue
            for bz in range(min(blocks[2], grid.dims[2])):
                z0 = bz * grid.dims[2] // blocks[2]
                z1 = (bz + 1) * grid.dims[2] // blocks[2]
                if z1 <= z0:
                    continue
                chunk = err[x0:x1, y0:y1, z0:z1]
                rows.append(
                    {
                        "x": (x0, x1),
                        "y": (y0, y1),
                        "z": (z0, z1),
                        "rmse": float(np.sqrt(np.mean(chunk**2))),
                        "count": int(chunk.size),
                    }
                )
    rows.sort(key=lambda r: -r["rmse"])
    return rows[:top_k]
