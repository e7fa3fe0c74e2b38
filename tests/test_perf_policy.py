"""Dtype policy: validation, casting, float64 accumulation guarantees."""

import numpy as np
import pytest

from repro.core import FCNNReconstructor
from repro.experiments.config import ExperimentConfig
from repro.nn import MSELoss, mlp
from repro.nn.serialization import load_model, save_model
from repro.perf import DtypePolicy, Workspace


class TestPolicy:
    def test_default_is_identity(self):
        policy = DtypePolicy()
        assert not policy.enabled
        assert policy.compute_dtype == np.float64

    def test_rejects_unknown_dtype(self):
        with pytest.raises(ValueError, match="float16"):
            DtypePolicy("float16")

    def test_cast_model_in_place(self):
        model = mlp(3, [4], 1, seed=0)
        params = model.parameters()
        DtypePolicy("float32").cast_model(model)
        assert model.parameters() == params  # same Parameter objects
        assert all(p.value.dtype == np.float32 for p in params)
        assert all(p.grad.dtype == np.float32 for p in params)

    def test_float64_cast_is_noop(self):
        model = mlp(3, [4], 1, seed=0)
        before = [p.value for p in model.parameters()]
        DtypePolicy().cast_model(model)
        assert all(a is b for a, b in zip(before, (p.value for p in model.parameters())))


class TestFloat32Compute:
    def test_loss_value_is_python_float64(self):
        """Accumulation guarantee: float32 predictions, float64 reduction."""
        p = np.ones((8, 2), dtype=np.float32)
        t = np.zeros((8, 2), dtype=np.float32)
        v = MSELoss().value(p, t)
        assert isinstance(v, float) and v == 1.0

    def test_float32_training_tracks_float64(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(256, 3))
        y = x.sum(axis=1, keepdims=True)

        def run(dtype):
            model = mlp(3, [8], 1, seed=0)
            DtypePolicy(dtype).cast_model(model)
            from repro.nn import Adam, Trainer

            trainer = Trainer(
                model,
                optimizer=Adam(model.parameters(), lr=1e-2),
                batch_size=64,
                seed=0,
                workspace=Workspace(dtype=np.dtype(dtype)),
            )
            return trainer.fit(x, y, epochs=3).train_loss

        l64, l32 = run("float64"), run("float32")
        assert np.allclose(l64, l32, rtol=1e-4)
        assert all(np.isfinite(l32))

    def test_reconstructor_float32_close_to_float64(self, hurricane_field, sample):
        def build(dtype):
            r = FCNNReconstructor(
                hidden_layers=(16, 8), batch_size=256, seed=0, dtype_policy=dtype
            )
            r.train(hurricane_field, sample, epochs=2)
            return r.reconstruct(sample)

        f64, f32 = build("float64"), build("float32")
        assert f32.dtype == np.float64  # outputs accumulate/denormalize in float64
        scale = np.max(np.abs(f64)) + 1e-12
        assert np.max(np.abs(f64 - f32)) / scale < 1e-4

    def test_policy_round_trips_through_save(self, hurricane_field, sample, tmp_path):
        r = FCNNReconstructor(
            hidden_layers=(8,), batch_size=256, seed=0, dtype_policy="float32"
        )
        r.train(hurricane_field, sample, epochs=1)
        r.save(tmp_path / "model.npz")
        loaded = FCNNReconstructor.load(tmp_path / "model.npz")
        assert loaded.dtype_policy.compute == "float32"
        assert all(p.value.dtype == np.float32 for p in loaded.model.parameters())


class TestDefaults:
    def test_reconstructor_and_config_compute_in_float32(self):
        assert FCNNReconstructor().dtype_policy.compute == "float32"
        assert ExperimentConfig().dtype_policy == "float32"

    def test_save_file_without_a_policy_loads_as_float64(self, hurricane_field, sample, tmp_path):
        """Files written before the float32 default carry no ``dtype_policy`` key."""
        r = FCNNReconstructor(hidden_layers=(8,), batch_size=256, seed=0, dtype_policy="float64")
        r.train(hurricane_field, sample, epochs=1)
        r.save(tmp_path / "new.npz")
        _, meta = load_model(tmp_path / "new.npz")
        del meta["dtype_policy"]
        save_model(tmp_path / "old.npz", r.model, meta=meta)
        loaded = FCNNReconstructor.load(tmp_path / "old.npz")
        assert loaded.dtype_policy.compute == "float64"
        assert all(p.value.dtype == np.float64 for p in loaded.model.parameters())
        np.testing.assert_array_equal(loaded.reconstruct(sample), r.reconstruct(sample))
