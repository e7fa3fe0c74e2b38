"""Importance-driven sampling (Biswas et al. [4], [5]).

The multi-criteria sampler assigns each grid point an importance that blends

* **value rarity** — per-point weight inversely proportional to the
  occupancy of its scalar-histogram bin, so uncommon values (features such
  as a hurricane eye or a flame sheet) are preferentially kept;
* **gradient magnitude** — points in high-gradient regions carry the
  geometric structure reconstruction must preserve;
* a small **uniform floor** so smooth regions retain background coverage.

Importances are converted to per-point acceptance probabilities whose sum
equals the storage budget via iterative water-filling (probabilities are
capped at 1 and the excess mass is redistributed).  Selection is then either
*exact* (weighted Gumbel top-k draw of exactly the budget, the default — the
experiments want precise sampling fractions) or *probabilistic* (independent
Bernoulli per point, the in situ streaming formulation).
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import TimestepField
from repro.grid import gradient_magnitude
from repro.sampling.base import Sampler

__all__ = [
    "acceptance_probabilities",
    "HistogramImportanceSampler",
    "GradientImportanceSampler",
    "MultiCriteriaSampler",
]


def acceptance_probabilities(importance: np.ndarray, budget: int, max_iter: int = 100) -> np.ndarray:
    """Scale non-negative importances to probabilities summing to ``budget``.

    Solves ``p_i = min(1, c * I_i)`` with ``sum(p) == budget`` by iteratively
    capping saturated points and rescaling the rest (water-filling).  Points
    with zero importance get zero probability unless the budget cannot be
    met otherwise, in which case the leftover mass is spread uniformly.
    """
    imp = np.asarray(importance, dtype=np.float64)
    if imp.ndim != 1:
        raise ValueError("importance must be 1D")
    n = imp.size
    peak = imp.max() if n else 0.0
    # A NaN minimum fails the comparison; an infinity is the peak.
    if n and not (imp.min() >= 0 and np.isfinite(peak)):
        raise ValueError("importance must be finite and non-negative")
    if not (1 <= budget <= n):
        raise ValueError(f"budget must be in [1, {n}], got {budget}")

    # The water-filling solution is scale-invariant in the importances;
    # normalizing up front keeps subnormal inputs (which would overflow the
    # rescaling division) well-conditioned.
    p = imp / peak if peak > 0 else np.zeros(n, dtype=np.float64)
    if max_iter > 0 and np.count_nonzero(p) == n:
        # Every point is free and the peak maps to exactly 1, so the first
        # water-filling pass scales the whole array; when nothing
        # saturates, that pass is the answer.
        p *= budget / p.sum()
        if p.max() > 1.0:
            p = _water_fill(imp / peak, budget, max_iter)
    else:
        p = _water_fill(p, budget, max_iter)

    # If importance mass was insufficient (e.g. mostly zeros), spread the
    # shortfall uniformly over unsaturated points.
    shortfall = budget - p.sum()
    if shortfall > 1e-9:
        free = p < 1.0
        headroom = (1.0 - p[free]).sum()
        if headroom > 0:
            p[free] += (1.0 - p[free]) * min(1.0, shortfall / headroom)
    return np.clip(p, 0.0, 1.0, out=p)


def _water_fill(imp: np.ndarray, budget: int, max_iter: int) -> np.ndarray:
    """Water-filling passes over importances whose peak is 1 (or all zero)."""
    n = imp.size
    p = np.zeros(n, dtype=np.float64)
    saturated = np.zeros(n, dtype=bool)
    remaining = float(budget)
    positive = imp > 0
    for _ in range(max_iter):
        # Zero-importance points never receive mass here; any unmet budget
        # is spread over them in the caller's shortfall pass.
        free = ~saturated & positive
        if not free.any():
            break
        # Renormalize the free importances by their own peak each pass:
        # proportionality is unchanged and the rescaling division can no
        # longer overflow, however subnormal the raw importances are.
        sub = imp[free]
        sub = sub / sub.max()
        total = sub.sum()  # >= 1 because the peak maps to exactly 1
        p[free] = sub * (remaining / total)
        over = free & (p > 1.0)
        if not over.any():
            break
        p[over] = 1.0
        saturated |= over
        remaining = budget - float(saturated.sum())
        if remaining <= 0:
            p[~saturated] = 0.0
            break
    return p


def _select_from_probabilities(
    p: np.ndarray, budget: int, rng: np.random.Generator, exact: bool
) -> np.ndarray:
    """Draw indices according to acceptance probabilities ``p``."""
    if exact:
        # Weighted without-replacement draw of exactly `budget` points via
        # Gumbel top-k on log-probabilities; zero-probability points are
        # only used if fewer than `budget` have positive probability.
        keys = rng.gumbel(size=p.size)
        if np.count_nonzero(p > 0) < budget:
            # Not enough positive-probability points: take them all and fill
            # the remainder uniformly at random.
            keys[p > 0] = np.inf
        else:
            logp = np.add(p, 1e-300)
            keys += np.log(logp, out=logp)
        return np.argpartition(np.negative(keys, out=keys), budget - 1)[:budget]
    accept = rng.random(p.size) < p
    idx = np.flatnonzero(accept)
    if idx.size == 0:
        idx = np.array([int(np.argmax(p))], dtype=np.int64)
    return idx


def _rarity_importance(values: np.ndarray, bins: int, weight: float = 1.0) -> np.ndarray:
    """Per-point weight ~ 1 / occupancy of the point's histogram bin.

    Bins each value once: on uniform edges, ``np.bincount`` of the
    ``np.digitize`` bin numbers equals ``np.histogram``'s counts (bins are
    half-open, the last one closed).  Every value's own bin holds at least
    that value, so the weights are formed per occupied bin, normalized by
    their maximum, scaled by ``weight`` and gathered once.

    Finite values too close together for ``bins`` finite-width bins (a
    few ulps apart) share one occupied bin, as a constant field's values
    do, so every point gets ``weight``.  Non-finite values keep numpy's
    error.
    """
    try:
        edges = np.histogram_bin_edges(values, bins=bins)
    except ValueError:
        if not np.isfinite(values).all():
            raise
        return np.full(values.shape, float(weight))
    which = np.digitize(values, edges[1:-1])
    counts = np.bincount(which, minlength=bins)
    per_bin = np.divide(1.0, counts, out=np.zeros(bins), where=counts > 0)
    per_bin /= per_bin.max()
    per_bin *= weight
    return per_bin[which]


def _normalized(x: np.ndarray) -> np.ndarray:
    """``x / x.max()`` in place, or zeros when the maximum is not positive."""
    m = x.max()
    if m > 0:
        return np.divide(x, m, out=x)
    x[...] = 0.0
    return x


class _ImportanceSampler(Sampler):
    """Shared budget/selection plumbing for importance-based samplers."""

    def __init__(self, seed: int = 0, exact: bool = True) -> None:
        super().__init__(seed=seed)
        self.exact = bool(exact)

    def importance(self, field: TimestepField) -> np.ndarray:
        raise NotImplementedError

    def select(self, field: TimestepField, fraction: float, rng: np.random.Generator) -> np.ndarray:
        budget = int(round(fraction * field.grid.num_points))
        imp = self.importance(field)
        p = acceptance_probabilities(imp, budget)
        return _select_from_probabilities(p, budget, rng, self.exact)


class HistogramImportanceSampler(_ImportanceSampler):
    """Value-rarity-only importance sampling (single criterion of [5])."""

    name = "histogram"

    def __init__(self, bins: int = 32, seed: int = 0, exact: bool = True) -> None:
        super().__init__(seed=seed, exact=exact)
        if bins < 2:
            raise ValueError(f"need at least 2 histogram bins, got {bins}")
        self.bins = int(bins)

    def importance(self, field: TimestepField) -> np.ndarray:
        return _rarity_importance(field.flat, self.bins)


class GradientImportanceSampler(_ImportanceSampler):
    """Gradient-magnitude-only importance sampling (single criterion of [5])."""

    name = "gradient"

    def importance(self, field: TimestepField) -> np.ndarray:
        return _normalized(gradient_magnitude(field.grid, field.values))


class MultiCriteriaSampler(_ImportanceSampler):
    """The paper's sampler: Biswas et al. [5] multi-criteria importance.

    Parameters
    ----------
    histogram_weight, gradient_weight, uniform_weight:
        Blend weights for the rarity, gradient and uniform-floor criteria
        (normalized internally).
    bins:
        Scalar-histogram resolution for the rarity criterion.
    exact:
        Draw exactly the budget (default) or Bernoulli per point.
    """

    name = "multicriteria"

    def __init__(
        self,
        histogram_weight: float = 1.0,
        gradient_weight: float = 1.0,
        uniform_weight: float = 0.1,
        bins: int = 32,
        seed: int = 0,
        exact: bool = True,
    ) -> None:
        super().__init__(seed=seed, exact=exact)
        weights = np.array([histogram_weight, gradient_weight, uniform_weight], dtype=np.float64)
        if np.any(weights < 0) or weights.sum() <= 0:
            raise ValueError("criterion weights must be non-negative with positive sum")
        self._weights = weights / weights.sum()
        if bins < 2:
            raise ValueError(f"need at least 2 histogram bins, got {bins}")
        self.bins = int(bins)

    def importance(self, field: TimestepField) -> np.ndarray:
        # The blend is built in the gradient-magnitude buffer: IEEE addition
        # is commutative, so adding the rarity term second keeps the bits of
        # ``w_hist * rarity + w_grad * gradient + w_uni``.
        w_hist, w_grad, w_uni = self._weights
        if w_grad > 0:
            imp = _normalized(gradient_magnitude(field.grid, field.values))
            imp *= w_grad
            if w_hist > 0:
                imp += _rarity_importance(field.flat, self.bins, w_hist)
        elif w_hist > 0:
            imp = _rarity_importance(field.flat, self.bins, w_hist)
        else:
            imp = np.zeros(field.grid.num_points, dtype=np.float64)
        if w_uni > 0:
            imp += w_uni
        return imp
