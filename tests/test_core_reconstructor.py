"""Unit/integration tests for the FCNN reconstructor."""

import numpy as np
import pytest

from repro.core import FCNNReconstructor, PAPER_HIDDEN_LAYERS
from repro.datasets import HurricaneDataset
from repro.grid import UniformGrid, upscaled_grid
from repro.metrics import snr
from repro.sampling import MultiCriteriaSampler


@pytest.fixture(scope="module")
def setup():
    """One small trained model shared across this module's read-only tests."""
    grid = UniformGrid((20, 20, 8))
    data = HurricaneDataset(grid=HurricaneDataset.default_grid().with_resolution((20, 20, 8)))
    field = data.field(t=0)
    sampler = MultiCriteriaSampler(seed=3)
    train = [sampler.sample(field, 0.02), sampler.sample(field, 0.08)]
    model = FCNNReconstructor(hidden_layers=(32, 16, 8), batch_size=1024, seed=0)
    model.train(field, train, epochs=40)
    return data, field, sampler, train, model


class TestConfiguration:
    def test_paper_defaults(self):
        model = FCNNReconstructor()
        assert model.hidden_layers == PAPER_HIDDEN_LAYERS == (512, 256, 128, 64, 16)
        assert model.extractor.num_neighbors == 5
        assert model.learning_rate == pytest.approx(1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            FCNNReconstructor(hidden_layers=())
        with pytest.raises(ValueError):
            FCNNReconstructor(gradient_loss_weight=-0.5)

    def test_untrained_raises(self, sample):
        model = FCNNReconstructor()
        assert not model.is_trained
        with pytest.raises(RuntimeError):
            model.reconstruct(sample)


class TestTraining:
    def test_training_reduces_loss(self, setup):
        *_, model = setup
        hist = model.history
        assert hist.train_loss[-1] < hist.train_loss[0]

    def test_reconstruction_beats_nothing(self, setup):
        data, field, sampler, train, model = setup
        test = sampler.sample(field, 0.03, seed=77)
        out = model.reconstruct(test)
        assert out.shape == field.grid.dims
        assert snr(field.values, out) > 5.0

    def test_sampled_values_exact(self, setup):
        data, field, sampler, train, model = setup
        test = sampler.sample(field, 0.03, seed=77)
        out = model.reconstruct(test).ravel()
        np.testing.assert_allclose(out[test.indices], test.values)

    def test_deterministic_training(self):
        grid = HurricaneDataset.default_grid().with_resolution((10, 10, 6))
        field = HurricaneDataset(grid=grid).field(0)
        sampler = MultiCriteriaSampler(seed=1)
        train = sampler.sample(field, 0.1)
        outs = []
        for _ in range(2):
            m = FCNNReconstructor(hidden_layers=(16, 8), seed=9, batch_size=256)
            m.train(field, train, epochs=5)
            outs.append(m.reconstruct(sampler.sample(field, 0.05, seed=2)))
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_train_fraction_subsamples(self):
        grid = HurricaneDataset.default_grid().with_resolution((10, 10, 6))
        field = HurricaneDataset(grid=grid).field(0)
        train = MultiCriteriaSampler(seed=1).sample(field, 0.1)
        m = FCNNReconstructor(hidden_layers=(16, 8), seed=9, batch_size=256)
        m.train(field, train, epochs=1, train_fraction=0.25)
        # can't observe rows directly, but training must succeed and be fast
        assert m.is_trained

    def test_train_fraction_validation(self, setup):
        data, field, sampler, train, _ = setup
        m = FCNNReconstructor(hidden_layers=(8,))
        with pytest.raises(ValueError):
            m.train(field, train, epochs=1, train_fraction=0.0)

    def test_empty_sample_list(self, setup):
        _, field, *_ = setup
        with pytest.raises(ValueError):
            FCNNReconstructor().train(field, [], epochs=1)


class TestFineTuning:
    def _fresh_model(self, setup):
        import copy

        return copy.deepcopy(setup[4])

    def test_case1_improves_new_timestep(self, setup):
        data, _, sampler, _, _ = setup
        model = self._fresh_model(setup)
        field2 = data.field(t=30)
        test2 = sampler.sample(field2, 0.03, seed=77)
        before = snr(field2.values, model.reconstruct(test2))
        train2 = [sampler.sample(field2, 0.02), sampler.sample(field2, 0.08)]
        model.fine_tune(field2, train2, epochs=10, strategy="full")
        after = snr(field2.values, model.reconstruct(test2))
        assert after > before

    def test_case2_only_touches_last_layers(self, setup):
        data, _, sampler, _, _ = setup
        model = self._fresh_model(setup)
        frozen_before = [l.weight.value.copy() for l in model.model.dense_layers()[:-2]]
        field2 = data.field(t=30)
        train2 = [sampler.sample(field2, 0.05)]
        model.fine_tune(field2, train2, epochs=3, strategy="last", num_trainable=2)
        for before, layer in zip(frozen_before, model.model.dense_layers()[:-2]):
            np.testing.assert_array_equal(before, layer.weight.value)

    def test_case2_updates_last_layers(self, setup):
        data, _, sampler, _, _ = setup
        model = self._fresh_model(setup)
        last_before = model.model.dense_layers()[-1].weight.value.copy()
        field2 = data.field(t=30)
        model.fine_tune(field2, [sampler.sample(field2, 0.05)], epochs=3, strategy="last")
        assert not np.array_equal(last_before, model.model.dense_layers()[-1].weight.value)

    def test_layers_unfrozen_after_finetune(self, setup):
        data, _, sampler, _, _ = setup
        model = self._fresh_model(setup)
        field2 = data.field(t=30)
        model.fine_tune(field2, [sampler.sample(field2, 0.05)], epochs=1, strategy="last")
        assert all(l.trainable for l in model.model.dense_layers())

    def test_layers_unfrozen_after_a_raising_case2_finetune(self, setup):
        """A health failure mid-fit still leaves every layer trainable, so the
        next snapshot() or clone() carries no Case-2 freeze flags."""
        from repro.resilience import HealthGuard, NumericalHealthError
        from repro.resilience.faults import poison_parameters

        data, _, sampler, _, _ = setup
        model = self._fresh_model(setup)
        poison_parameters(model.model, target="head")
        field2 = data.field(t=30)
        with pytest.raises(NumericalHealthError):
            model.fine_tune(
                field2, [sampler.sample(field2, 0.05)], epochs=1, strategy="last",
                health=HealthGuard(policy="raise"),
            )
        assert all(l.trainable for l in model.model.dense_layers())
        assert all(trainable for _, trainable in model.snapshot()[0])
        assert all(l._ws is None for l in model.model.layers)

    def test_invalid_strategy(self, setup):
        data, field, sampler, train, _ = setup
        model = self._fresh_model(setup)
        with pytest.raises(ValueError):
            model.fine_tune(field, train, epochs=1, strategy="middle")

    def test_finetune_untrained_raises(self, setup):
        _, field, _, train, _ = setup
        with pytest.raises(RuntimeError):
            FCNNReconstructor().fine_tune(field, train, epochs=1)


class TestCrossGrid:
    def test_reconstruct_on_target_grid(self, setup):
        data, field, sampler, _, model = setup
        hi = upscaled_grid(field.grid, 2)
        field_hi = data.field(t=0, grid=hi)
        sample_hi = sampler.sample(field_hi, 0.03, seed=5)
        out = model.reconstruct(sample_hi, target_grid=hi)
        assert out.shape == hi.dims
        assert snr(field_hi.values, out) > 3.0

    def test_shifted_domain_defined(self, setup):
        data, field, sampler, _, model = setup
        hi = upscaled_grid(field.grid, 2, shift_fraction=(0.2, 0.1, 0.0))
        field_hi = data.field(t=0, grid=hi)
        sample_hi = sampler.sample(field_hi, 0.03, seed=5)
        out = model.reconstruct(sample_hi, target_grid=hi)
        assert np.isfinite(out).all()

    def test_predict_values_points(self, setup):
        _, field, sampler, _, model = setup
        test = sampler.sample(field, 0.05, seed=8)
        pts = field.grid.points()[:64]
        vals = model.predict_values(test, pts)
        assert vals.shape == (64,)
        assert np.isfinite(vals).all()


class TestCheckpointing:
    def test_save_load_roundtrip(self, setup, tmp_path):
        _, field, sampler, _, model = setup
        path = tmp_path / "model.npz"
        model.save(path)
        loaded = FCNNReconstructor.load(path)
        test = sampler.sample(field, 0.03, seed=12)
        np.testing.assert_allclose(loaded.reconstruct(test), model.reconstruct(test))

    def test_load_preserves_config(self, setup, tmp_path):
        *_, model = setup
        path = tmp_path / "model.npz"
        model.save(path)
        loaded = FCNNReconstructor.load(path)
        assert loaded.hidden_layers == model.hidden_layers
        assert loaded.extractor.num_neighbors == model.extractor.num_neighbors

    def test_partial_checkpoint_graft(self, setup, tmp_path):
        import copy

        data, field, sampler, _, model = setup
        base_path = tmp_path / "base.npz"
        model.save(base_path)

        tuned = copy.deepcopy(model)
        field2 = data.field(t=20)
        tuned.fine_tune(field2, [sampler.sample(field2, 0.05)], epochs=2, strategy="last")
        part_path = tmp_path / "t20.npz"
        tuned.save_partial(part_path, num_layers=2)

        restored = FCNNReconstructor.load(base_path)
        restored.load_partial(part_path)
        test = sampler.sample(field2, 0.03, seed=4)
        np.testing.assert_allclose(restored.reconstruct(test), tuned.reconstruct(test))

    def test_save_untrained_raises(self, tmp_path):
        with pytest.raises(RuntimeError):
            FCNNReconstructor().save(tmp_path / "x.npz")
