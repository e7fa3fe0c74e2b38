"""Blue-noise (Poisson-disk) sampling.

Rapp et al. [23] (cited in Sec II) sample scattered data while preserving
blue-noise properties — samples spread evenly with a minimum mutual
distance, avoiding both clumps and holes.  This implements the classic
dart-throwing formulation on the grid with an importance-aware variant:
candidate order follows the same multi-criteria importance as the paper's
sampler, so features are visited first while spacing stays even.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import TimestepField
from repro.sampling.base import Sampler
from repro.sampling.importance import MultiCriteriaSampler

__all__ = ["PoissonDiskSampler"]


class PoissonDiskSampler(Sampler):
    """Dart-throwing Poisson-disk selection under a storage budget.

    Parameters
    ----------
    importance_ordered:
        When True (default), candidates are visited in decreasing
        multi-criteria importance so high-information points win the
        spacing contest; when False, visiting order is uniform random
        (pure blue noise).
    relax:
        Radius relaxation factor per retry round when the budget cannot be
        met at the ideal spacing.
    """

    name = "poisson"

    def __init__(self, importance_ordered: bool = True, relax: float = 0.8, seed: int = 0) -> None:
        super().__init__(seed=seed)
        if not (0.0 < relax < 1.0):
            raise ValueError(f"relax must be in (0, 1), got {relax}")
        self.importance_ordered = bool(importance_ordered)
        self.relax = float(relax)

    def _candidate_order(self, field: TimestepField, rng: np.random.Generator) -> np.ndarray:
        n = field.grid.num_points
        if not self.importance_ordered:
            return rng.permutation(n)
        imp = MultiCriteriaSampler(seed=self.seed).importance(field)
        # Random tie-breaking keeps the order a proper draw, not a sort.
        noise = rng.random(n) * 1e-9 * (imp.max() + 1.0)
        return np.argsort(-(imp + noise))

    def select(self, field: TimestepField, fraction: float, rng: np.random.Generator) -> np.ndarray:
        from scipy.spatial import cKDTree

        grid = field.grid
        n = grid.num_points
        budget = int(round(fraction * n))
        points = grid.points()

        # Ideal Poisson-disk radius: budget spheres tiling the domain volume.
        spans = [(d - 1) * s for d, s in zip(grid.dims, grid.spacing)]
        volume = float(np.prod([max(s, min(grid.spacing)) for s in spans]))
        radius = (volume / max(budget, 1)) ** (1.0 / 3.0)

        order = self._candidate_order(field, rng)
        chosen: list[int] = []
        blocked = np.zeros(n, dtype=bool)

        while len(chosen) < budget and radius > 1e-9:
            tree = cKDTree(points)
            for idx in order:
                if len(chosen) >= budget:
                    break
                if blocked[idx]:
                    continue
                chosen.append(int(idx))
                # Block this dart's exclusion zone.
                for nb in tree.query_ball_point(points[idx], radius):
                    blocked[nb] = True
            if len(chosen) < budget:
                # Too tight: relax the radius and re-run over survivors.
                radius *= self.relax
                blocked[:] = False
                blocked[np.asarray(chosen, dtype=np.int64)] = True
                # Re-block zones of already-chosen darts at the new radius.
                for idx in chosen:
                    for nb in tree.query_ball_point(points[idx], radius):
                        blocked[nb] = True
        if len(chosen) < budget:
            # Degenerate fallback: top up uniformly.
            mask = np.ones(n, dtype=bool)
            mask[np.asarray(chosen, dtype=np.int64)] = False
            extra = rng.choice(np.flatnonzero(mask), size=budget - len(chosen), replace=False)
            chosen.extend(int(e) for e in extra)
        return np.asarray(chosen[:budget], dtype=np.int64)
