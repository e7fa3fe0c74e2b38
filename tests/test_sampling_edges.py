"""Sampler edge inputs either work or raise a named error.

Every sampler takes the same inputs, so each case runs against all of
them: a field holding NaN or infinity must raise
:class:`~repro.sampling.NonFiniteFieldError` (naming the timestep and the
count) instead of failing inside numpy or returning a sample that carries
the bad values; a constant field, a field whose values lie a few ulps
apart, a grid axis of length 1, ``fraction=1`` and a budget of one point
must give a valid sample of the budget.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import make_dataset
from repro.datasets.base import TimestepField
from repro.grid import UniformGrid
from repro.sampling import (
    GradientImportanceSampler,
    HistogramImportanceSampler,
    MultiCriteriaSampler,
    NonFiniteFieldError,
    PoissonDiskSampler,
    RandomSampler,
    SampledField,
    StratifiedSampler,
)

SAMPLERS = [
    MultiCriteriaSampler,
    HistogramImportanceSampler,
    GradientImportanceSampler,
    RandomSampler,
    StratifiedSampler,
    PoissonDiskSampler,
]


@pytest.fixture(params=SAMPLERS, ids=[c.name for c in SAMPLERS])
def sampler(request):
    return request.param(seed=5)


def _field(values: np.ndarray, grid: UniformGrid, t: int = 3) -> TimestepField:
    return TimestepField(grid=grid, values=values.reshape(grid.dims), timestep=t)


class TestNonFinite:
    @pytest.mark.parametrize("bad", [[np.nan, np.inf], [-np.inf], [np.nan] * 3])
    def test_raises_named_error_with_timestep_and_count(self, sampler, bad):
        grid = UniformGrid((12, 12, 6))
        values = make_dataset("hurricane", dims=grid.dims).field(3).flat.copy()
        values[np.linspace(0, grid.num_points - 1, len(bad)).astype(int)] = bad
        with pytest.raises(NonFiniteFieldError, match=rf"timestep 7 has {len(bad)} non-finite"):
            sampler.sample(_field(values, grid, t=7), 0.3)

    def test_is_a_value_error(self):
        assert issubclass(NonFiniteFieldError, ValueError)


def _check(sample: SampledField, field: TimestepField, budget: int) -> None:
    assert sample.num_samples == budget
    assert np.all(np.diff(sample.indices) > 0)
    assert sample.values.tobytes() == field.flat[sample.indices].tobytes()
    assert np.isfinite(sample.values).all()


def _narrow() -> TimestepField:
    """Distinct values too close together for any number of finite bins."""
    return _field(1.0 + (np.arange(864) % 3) * 2.0**-52, UniformGrid((12, 12, 6)))


class TestWorkingEdges:
    FIELDS = {
        "constant": lambda: _field(np.full(864, 4.25), UniformGrid((12, 12, 6))),
        "narrow-range": _narrow,
        "flat-axis": lambda: make_dataset("combustion", dims=(9, 1, 7)).field(2),
        "single-column": lambda: make_dataset("ionization", dims=(1, 1, 20)).field(4),
    }

    @pytest.mark.parametrize("case", sorted(FIELDS))
    @pytest.mark.parametrize("fraction", ["one-point", 0.05, 1.0])
    def test_sample_of_the_budget(self, sampler, case, fraction):
        field = self.FIELDS[case]()
        n = field.grid.num_points
        frac = 1.0 / n if fraction == "one-point" else fraction
        budget = int(round(frac * n))
        sample = sampler.sample(field, frac)
        _check(sample, field, budget)
        if fraction == 1.0:
            assert sample.indices.tolist() == list(range(n))


class TestNarrowRangeImportance:
    def test_rarity_is_uniform_like_a_constant_field(self):
        constant = _field(np.full(864, 4.25), UniformGrid((12, 12, 6)))
        sampler = HistogramImportanceSampler(seed=5)
        got = sampler.importance(_narrow())
        assert got.tobytes() == sampler.importance(constant).tobytes()
        assert np.all(got == 1.0)

    def test_direct_importance_of_non_finite_field_still_raises(self):
        values = np.full(864, 4.25)
        values[7] = np.nan
        with pytest.raises(ValueError, match="not finite"):
            HistogramImportanceSampler().importance(_field(values, UniformGrid((12, 12, 6))))
