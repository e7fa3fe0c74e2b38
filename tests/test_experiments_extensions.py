"""Smoke tests for the extension experiments (features, uncertainty, samplers)."""

import numpy as np
import pytest

from repro.experiments.config import get_config

TINY = get_config(
    "quick",
    dims=(12, 12, 6),
    epochs=4,
    test_fractions=(0.03, 0.08),
    hidden_layers=(16, 8),
    batch_size=1024,
)


class TestFeaturePreservation:
    def test_runs_and_reports_all_metrics(self):
        from repro.experiments import exp_feature_preservation

        res = exp_feature_preservation.run(TINY)
        assert len(res.rows) == 2 * 5  # fractions x methods
        for row in res.rows:
            assert 0.0 <= row["iso_iou"] <= 1.0
            assert 0.0 <= row["hist_isect"] <= 1.0
            assert -1.0 <= row["ssim"] <= 1.0 + 1e-9
        assert "isovalue" in res.notes

    def test_isovalue_quantile(self):
        from repro.experiments.exp_feature_preservation import feature_isovalue

        values = np.arange(100.0)
        assert feature_isovalue(values, 0.1) == pytest.approx(9.9, abs=0.2)


class TestUncertainty:
    def test_runs_and_reports(self):
        from repro.experiments import exp_uncertainty

        res = exp_uncertainty.run(TINY, num_members=2)
        assert len(res.rows) == len(TINY.test_fractions)
        for row in res.rows:
            assert 0.0 <= row["coverage_2sigma"] <= 1.0
            assert row["mean_std"] >= 0.0
            assert -1.0 <= row["err_unc_corr"] <= 1.0

    def test_uncertainty_correlates_with_error_when_trained(self):
        # With a modest but real budget, ensemble std must rank error at
        # least weakly (positive correlation).
        from repro.experiments import exp_uncertainty

        cfg = TINY.scaled(epochs=25, test_fractions=(0.03,))
        res = exp_uncertainty.run(cfg, num_members=3)
        corr = res.rows[0]["err_unc_corr"]
        assert corr > 0.0


class TestSamplerAblation:
    def test_runs_all_samplers(self):
        from repro.experiments import exp_samplers

        res = exp_samplers.run(TINY, fraction=0.05)
        samplers = {r["sampler"] for r in res.rows}
        assert samplers == {
            "random", "stratified", "histogram", "gradient", "multicriteria", "poisson"
        }
        for row in res.rows:
            assert np.isfinite(row["snr_fcnn"]) and np.isfinite(row["snr_linear"])

    def test_subset_of_samplers(self):
        from repro.experiments import exp_samplers

        res = exp_samplers.run(TINY, fraction=0.05, samplers=("random", "multicriteria"))
        assert len(res.rows) == 2


class TestCompressionExperiment:
    def test_runs_and_budget_respected(self):
        from repro.experiments import exp_compression

        res = exp_compression.run(TINY)
        assert len(res.rows) == len(TINY.test_fractions)
        for row in res.rows:
            assert row["compressed_bytes"] <= row["budget_bytes"] + 64
            assert np.isfinite(row["snr_compression"])
            assert row["error_bound"] > 0

    def test_storage_model(self):
        from repro.experiments.exp_compression import sample_storage_bytes

        assert sample_storage_bytes(100) == 1600

    def test_compress_to_budget_monotone(self):
        from repro.experiments.exp_compression import compress_to_budget
        from repro.datasets import HurricaneDataset

        data = HurricaneDataset(
            grid=HurricaneDataset.default_grid().with_resolution((16, 16, 8))
        )
        field = data.field(0)
        _, small = compress_to_budget(field.grid, field.values, 500)
        _, large = compress_to_budget(field.grid, field.values, 5000)
        assert small.nbytes <= 500 + 64
        assert large.error_bound <= small.error_bound


class TestScheduleAblation:
    def test_runs_all_schedules(self):
        from repro.experiments import exp_schedules

        res = exp_schedules.run(TINY)
        labels = {r["schedule"] for r in res.rows}
        assert "constant" in labels and "cosine" in labels
        assert len(res.rows) == 5
        for row in res.rows:
            assert np.isfinite(row["avg_snr"])
            assert row["final_lr"] > 0

    def test_trains_in_the_model_dtype(self, monkeypatch):
        """Every Dense layer computes float32 rows against its float32 weights."""
        from repro.experiments import exp_schedules
        from repro.nn.layers import Dense

        seen = set()
        forward = Dense.forward

        def spy(layer, x):
            out = forward(layer, x)
            seen.add((x.dtype.name, layer.weight.value.dtype.name, out.dtype.name))
            return out

        monkeypatch.setattr(Dense, "forward", spy)
        exp_schedules.run(TINY.scaled(epochs=1))
        assert seen == {("float32", "float32", "float32")}


class TestCLIRegistration:
    @pytest.mark.parametrize(
        "name",
        ["ext-features", "ext-uncertainty", "ext-samplers", "ext-compression", "ext-schedules"],
    )
    def test_registered(self, name, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        assert name in capsys.readouterr().out
