"""Tests for the experiment harness: config, reporting, every runner."""

import numpy as np
import pytest

from repro.experiments import ExperimentConfig, PROFILES
from repro.experiments.config import get_config
from repro.experiments.reporting import format_series, format_table


#: one tiny config reused by all runner smoke tests
TINY = get_config(
    "quick",
    dims=(14, 14, 6),
    epochs=4,
    case2_epochs=6,
    test_fractions=(0.02, 0.05),
    timesteps=(0, 16, 32),
    hidden_layers=(16, 8),
    batch_size=1024,
)


class TestConfig:
    def test_profiles_exist(self):
        assert {"quick", "bench", "paper"} <= set(PROFILES)

    def test_paper_profile_uses_paper_architecture(self):
        assert PROFILES["paper"].hidden_layers == (512, 256, 128, 64, 16)
        assert PROFILES["paper"].epochs == 500

    def test_get_config_overrides(self):
        cfg = get_config("quick", epochs=3)
        assert cfg.epochs == 3 and cfg.profile == "quick"

    def test_get_config_unknown(self):
        with pytest.raises(ValueError):
            get_config("gpu")

    def test_scaled_returns_copy(self):
        cfg = get_config("quick")
        other = cfg.scaled(seed=123)
        assert other.seed == 123 and cfg.seed != 123

    def test_frozen(self):
        with pytest.raises(Exception):
            get_config("quick").epochs = 9  # type: ignore[misc]


class TestReporting:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.25}]
        text = format_table(rows)
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, 2 rows
        assert "a" in lines[0] and "b" in lines[0]

    def test_format_table_union_of_keys(self):
        rows = [{"a": 1}, {"b": 2}]
        text = format_table(rows)
        assert "a" in text and "b" in text

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_format_series(self):
        text = format_series({"curve": [(1, 2.0), (2, 4.0)]}, x_name="frac")
        assert "[curve]" in text and "frac=1" in text

    def test_format_handles_nan(self):
        assert "nan" in format_table([{"v": float("nan")}])


class TestRunners:
    """Smoke tests: every runner executes and returns sane structure."""

    def test_fig6_layers(self):
        from repro.experiments import exp_layers

        res = exp_layers.run(TINY, layer_counts=(1, 2))
        assert len(res.rows) == 2
        assert all(np.isfinite(r["avg_snr"]) for r in res.rows)
        assert res.rows[0]["hidden_layers"] == 1

    def test_fig6_ladder(self):
        from repro.experiments.exp_layers import layer_ladder

        assert layer_ladder(2, (128, 64, 32)) == (128, 64)
        assert layer_ladder(5, (128, 64, 32)) == (128, 64, 32, 32, 32)
        with pytest.raises(ValueError):
            layer_ladder(0, (128,))

    def test_fig7_train_mix(self):
        from repro.experiments import exp_train_mix

        res = exp_train_mix.run(TINY)
        models = {r["model"] for r in res.rows}
        assert len(models) == 3
        assert len(res.rows) == 3 * len(TINY.test_fractions)

    def test_fig8_gradient(self):
        from repro.experiments import exp_gradient_ablation

        res = exp_gradient_ablation.run(TINY)
        assert {r["model"] for r in res.rows} == {"with-gradient", "without-gradient"}

    def test_fig9_quality(self):
        from repro.experiments import exp_sampling_quality

        res = exp_sampling_quality.run(TINY, datasets=("hurricane",))
        methods = {r["method"] for r in res.rows}
        assert {"fcnn", "linear", "natural", "shepard", "nearest"} == methods
        assert all(np.isfinite(r["snr"]) for r in res.rows)

    def test_fig10_time(self):
        from repro.experiments import exp_sampling_time

        res = exp_sampling_time.run(TINY)
        methods = {r["method"] for r in res.rows}
        assert "fcnn" in methods and "linear-naive" in methods and "linear-parallel" in methods
        assert all(r["seconds"] >= 0 for r in res.rows)

    def test_fig11_timesteps(self):
        from repro.experiments import exp_timesteps

        res = exp_timesteps.run(TINY)
        assert len(res.rows) == len(TINY.timesteps)
        for row in res.rows:
            assert {"linear", "fcnn-pre@A", "fcnn-pre@B", "fcnn-ft@A", "fcnn-ft@B"} <= set(row)

    def test_fig12_loss_curves(self):
        from repro.experiments import exp_loss_curves

        res = exp_loss_curves.run(TINY)
        assert len(res.series["full-training"]) == TINY.epochs
        assert len(res.series["fine-tuning"]) >= TINY.finetune_epochs
        # Both phases make progress.  (The paper's "fine-tuning starts
        # already low" shape needs a converged pretrain; the bench-profile
        # benchmark asserts it — at this tiny epoch budget we only require
        # that fine-tuning itself converges.)
        ft = [v for _, v in res.series["fine-tuning"]]
        assert ft[-1] <= ft[0]

    def test_fig13_upscaling(self):
        from repro.experiments import exp_upscaling

        res = exp_upscaling.run(TINY)
        assert res.notes["high_dims"] == tuple(d * TINY.upscale_factor for d in TINY.dims)
        for row in res.rows:
            assert {"linear", "fcnn-full@hi", "fcnn-ft lo->hi"} <= set(row)

    def test_fig14_training_subset(self):
        from repro.experiments import exp_training_subset

        # Five interleaved trainings per fraction; the fastest of each
        # decides, so one stalled run cannot invert the comparison.
        res = exp_training_subset.run(TINY, fractions=(1.0, 0.5) * 5)
        assert {r["train_data"] for r in res.rows} == {"100%", "50%"}
        fastest: dict[float, float] = {}
        for fraction, seconds in res.series["train_seconds"]:
            fastest[fraction] = min(seconds, fastest.get(fraction, float("inf")))
        assert fastest[0.5] < fastest[1.0]

    def test_tab1_training_time(self):
        from repro.experiments import exp_training_time

        res = exp_training_time.run(TINY)
        assert len(res.rows) == 4
        datasets = [r["dataset"] for r in res.rows]
        assert datasets.count("hurricane") == 2
        # The upscaled hurricane has ~8x the rows and must cost more.
        hur = [r for r in res.rows if r["dataset"] == "hurricane"]
        assert max(h["train_seconds"] for h in hur) > min(h["train_seconds"] for h in hur)

    def test_fig5_finetune_cases(self):
        from repro.experiments import exp_finetune_cases

        res = exp_finetune_cases.run(TINY, case2_budgets=(2, 6))
        cases = {r["case"] for r in res.rows}
        assert {"no-finetune", "case1-full", "case2-last2"} == cases
        assert res.notes["partial_checkpoint_bytes"] < res.notes["full_checkpoint_bytes"]

    def test_result_format_renders(self):
        from repro.experiments import exp_train_mix

        text = exp_train_mix.run(TINY).format()
        assert "fig07-train-mix" in text and "snr" in text


class TestCLI:
    def test_list(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out and "tab1" in out

    def test_unknown_experiment(self, capsys):
        from repro.cli import main

        assert main(["fig99"]) == 2

    def test_runs_experiment(self, capsys):
        from repro.cli import main

        code = main(["fig7", "--profile", "quick", "--epochs", "2"])
        assert code == 0
        assert "fig07-train-mix" in capsys.readouterr().out
