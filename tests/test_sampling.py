"""Unit tests for the sampling substrate (SampledField + samplers)."""

import numpy as np
import pytest

from repro.grid import UniformGrid
from repro.sampling import (
    GradientImportanceSampler,
    HistogramImportanceSampler,
    MultiCriteriaSampler,
    RandomSampler,
    SampledField,
    StratifiedSampler,
    acceptance_probabilities,
)

ALL_SAMPLERS = [
    RandomSampler,
    StratifiedSampler,
    HistogramImportanceSampler,
    GradientImportanceSampler,
    MultiCriteriaSampler,
]


@pytest.fixture(params=ALL_SAMPLERS, ids=[c.name for c in ALL_SAMPLERS])
def sampler(request):
    return request.param(seed=11)


class TestSampledField:
    def test_basic_invariants(self, sample):
        assert sample.num_samples == len(np.unique(sample.indices))
        assert np.all(np.diff(sample.indices) > 0)  # sorted unique
        assert sample.values.shape == sample.indices.shape

    def test_values_match_field(self, hurricane_field, sample):
        np.testing.assert_allclose(sample.values, hurricane_field.flat[sample.indices])

    def test_void_indices_partition(self, sample):
        void = sample.void_indices()
        n = sample.grid.num_points
        assert len(void) + sample.num_samples == n
        assert len(np.intersect1d(void, sample.indices)) == 0

    def test_points_positions(self, sample):
        pts = sample.points
        assert pts.shape == (sample.num_samples, 3)
        # positions must round-trip through the grid index mapping
        idx = sample.grid.multi_to_flat(sample.grid.position_to_index(pts))
        np.testing.assert_array_equal(np.sort(idx), sample.indices)

    def test_points_computed_once_read_only(self, sample):
        first = sample.points
        assert sample.points is first
        want = sample.grid.index_to_position(sample.grid.flat_to_multi(sample.indices))
        assert first.tobytes() == want.tobytes()
        assert not first.flags.writeable

    def test_rejects_duplicates(self, grid):
        with pytest.raises(ValueError):
            SampledField(grid, np.array([1, 1]), np.array([0.0, 0.0]), 0.1)

    def test_rejects_out_of_range(self, grid):
        with pytest.raises(ValueError):
            SampledField(grid, np.array([grid.num_points]), np.array([0.0]), 0.1)

    def test_rejects_empty(self, grid):
        with pytest.raises(ValueError):
            SampledField(grid, np.array([], dtype=np.int64), np.array([]), 0.1)

    def test_sorts_inputs(self, grid):
        s = SampledField(grid, np.array([5, 2, 9]), np.array([50.0, 20.0, 90.0]), 0.1)
        np.testing.assert_array_equal(s.indices, [2, 5, 9])
        np.testing.assert_allclose(s.values, [20.0, 50.0, 90.0])

    def test_vtp_roundtrip(self, tmp_path, sample):
        path = tmp_path / "s.vtp"
        sample.to_vtp(path)
        loaded = SampledField.from_vtp(path, sample.grid, fraction=sample.fraction)
        np.testing.assert_array_equal(loaded.indices, sample.indices)
        np.testing.assert_allclose(loaded.values, sample.values)


class TestSamplerContract:
    def test_exact_budget(self, hurricane_field, sampler):
        s = sampler.sample(hurricane_field, 0.05)
        expected = int(round(0.05 * hurricane_field.grid.num_points))
        assert s.num_samples == expected

    def test_deterministic(self, hurricane_field, sampler):
        a = sampler.sample(hurricane_field, 0.03)
        b = sampler.sample(hurricane_field, 0.03)
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_seed_changes_draw(self, hurricane_field, sampler):
        a = sampler.sample(hurricane_field, 0.03)
        b = sampler.sample(hurricane_field, 0.03, seed=123)
        assert not np.array_equal(a.indices, b.indices)

    def test_fraction_one_keeps_everything(self, hurricane_field, sampler):
        s = sampler.sample(hurricane_field, 1.0)
        assert s.num_samples == hurricane_field.grid.num_points

    def test_rejects_bad_fraction(self, hurricane_field, sampler):
        with pytest.raises(ValueError):
            sampler.sample(hurricane_field, 0.0)
        with pytest.raises(ValueError):
            sampler.sample(hurricane_field, 1.5)

    def test_rejects_zero_budget(self, hurricane_field, sampler):
        with pytest.raises(ValueError):
            sampler.sample(hurricane_field, 1e-9)

    def test_timestep_recorded(self, sampler, grid):
        from repro.datasets import HurricaneDataset

        field = HurricaneDataset(grid=grid).field(t=7)
        s = sampler.sample(field, 0.05)
        assert s.timestep == 7


class TestAcceptanceProbabilities:
    def test_sums_to_budget(self, rng):
        imp = rng.random(500)
        p = acceptance_probabilities(imp, 50)
        assert p.sum() == pytest.approx(50, rel=1e-6)

    def test_bounded(self, rng):
        imp = rng.random(200) ** 4
        p = acceptance_probabilities(imp, 120)
        assert (p >= 0).all() and (p <= 1).all()

    def test_proportional_when_unsaturated(self):
        imp = np.array([1.0, 2.0, 3.0, 4.0])
        p = acceptance_probabilities(imp, 2)
        np.testing.assert_allclose(p / p[0], imp / imp[0])

    def test_caps_dominant_point(self):
        imp = np.array([100.0, 1.0, 1.0, 1.0])
        p = acceptance_probabilities(imp, 2)
        assert p[0] == pytest.approx(1.0)
        assert p[1:].sum() == pytest.approx(1.0)

    def test_zero_importance_spread_uniformly(self):
        imp = np.zeros(10)
        p = acceptance_probabilities(imp, 4)
        assert p.sum() == pytest.approx(4)
        np.testing.assert_allclose(p, p[0])

    def test_budget_equals_n(self, rng):
        imp = rng.random(20)
        p = acceptance_probabilities(imp, 20)
        np.testing.assert_allclose(p, 1.0)

    def test_rejects_negative_importance(self):
        with pytest.raises(ValueError):
            acceptance_probabilities(np.array([-1.0, 1.0]), 1)

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            acceptance_probabilities(np.ones(5), 0)
        with pytest.raises(ValueError):
            acceptance_probabilities(np.ones(5), 6)


class TestImportanceBehaviour:
    def test_gradient_sampler_prefers_high_gradient(self, grid):
        from repro.datasets.base import TimestepField
        from repro.grid import gradient_magnitude

        # A field with one sharp front: samples must concentrate there.
        x, _, _ = grid.meshgrid()
        values = np.tanh((x - x.mean()) / 0.8)
        field = TimestepField(grid, values, timestep=0)
        s = GradientImportanceSampler(seed=0).sample(field, 0.05)
        mag = gradient_magnitude(grid, values)
        assert mag[s.indices].mean() > 1.3 * mag.mean()

    def test_histogram_sampler_prefers_rare_values(self, grid):
        from repro.datasets.base import TimestepField

        # 95% of points share one value; the rare tail must be enriched.
        values = np.zeros(grid.num_points)
        rare = np.arange(0, grid.num_points, 20)
        values[rare] = np.linspace(5, 10, len(rare))
        field = TimestepField(grid, values.reshape(grid.dims), timestep=0)
        s = HistogramImportanceSampler(bins=16, seed=0).sample(field, 0.05)
        rare_hit_rate = np.isin(s.indices, rare).mean()
        assert rare_hit_rate > 0.5  # rare points are 5% of the grid

    def test_multicriteria_blends(self, hurricane_field):
        s = MultiCriteriaSampler(seed=0).sample(hurricane_field, 0.04)
        assert s.num_samples == int(round(0.04 * hurricane_field.grid.num_points))

    def test_multicriteria_weight_validation(self):
        with pytest.raises(ValueError):
            MultiCriteriaSampler(histogram_weight=-1)
        with pytest.raises(ValueError):
            MultiCriteriaSampler(histogram_weight=0, gradient_weight=0, uniform_weight=0)

    def test_bernoulli_mode_near_budget(self, hurricane_field):
        s = MultiCriteriaSampler(seed=0, exact=False).sample(hurricane_field, 0.05)
        budget = 0.05 * hurricane_field.grid.num_points
        assert 0.5 * budget < s.num_samples < 1.5 * budget

    def test_bins_validation(self):
        with pytest.raises(ValueError):
            HistogramImportanceSampler(bins=1)
        with pytest.raises(ValueError):
            MultiCriteriaSampler(bins=1)


class TestStratified:
    def test_block_coverage(self, hurricane_field):
        # With enough budget, every spatial block must contain samples.
        s = StratifiedSampler(blocks=(3, 3, 2), seed=0).sample(hurricane_field, 0.10)
        grid = hurricane_field.grid
        multi = grid.flat_to_multi(s.indices)
        bx = multi[:, 0] * 3 // grid.dims[0]
        by = multi[:, 1] * 3 // grid.dims[1]
        bz = multi[:, 2] * 2 // grid.dims[2]
        blocks = set(zip(bx.tolist(), by.tolist(), bz.tolist()))
        assert len(blocks) == 3 * 3 * 2

    def test_rejects_bad_blocks(self):
        with pytest.raises(ValueError):
            StratifiedSampler(blocks=(0, 1, 1))

    def test_more_blocks_than_axis_points(self, hurricane_field):
        s = StratifiedSampler(blocks=(64, 64, 64), seed=0).sample(hurricane_field, 0.05)
        assert s.num_samples == int(round(0.05 * hurricane_field.grid.num_points))
