"""Unit tests for losses, optimizers and the Trainer loop."""

import numpy as np
import pytest

from repro.nn import Adam, MSELoss, Parameter, Trainer, WeightedMSELoss, mlp


class TestLosses:
    def test_mse_value(self):
        loss = MSELoss()
        assert loss.value(np.array([[1.0, 2.0]]), np.array([[0.0, 0.0]])) == pytest.approx(2.5)

    def test_mse_zero_at_target(self, rng):
        y = rng.normal(size=(4, 3))
        assert MSELoss().value(y, y) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            MSELoss().value(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_empty_batch(self):
        with pytest.raises(ValueError):
            MSELoss().value(np.zeros((0, 2)), np.zeros((0, 2)))

    def test_weighted_mse_reduces_to_mse(self, rng):
        p, t = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        assert WeightedMSELoss([1, 1, 1]).value(p, t) == pytest.approx(MSELoss().value(p, t))

    def test_weighted_mse_zero_weight_ignores_column(self, rng):
        p, t = rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
        w = WeightedMSELoss([1.0, 0.0])
        p2 = p.copy()
        p2[:, 1] += 100.0  # must not change the loss
        assert w.value(p, t) == pytest.approx(w.value(p2, t))

    def test_weighted_mse_validation(self):
        with pytest.raises(ValueError):
            WeightedMSELoss([])
        with pytest.raises(ValueError):
            WeightedMSELoss([-1.0, 1.0])
        with pytest.raises(ValueError):
            WeightedMSELoss([1.0]).value(np.zeros((2, 2)), np.zeros((2, 2)))


class TestOptimizers:
    def _quadratic_params(self):
        # minimize sum((w - 3)^2): gradient = 2(w - 3)
        return Parameter(np.zeros(4), name="w")

    def _run(self, optimizer, p, steps=500):
        for _ in range(steps):
            p.grad[...] = 2 * (p.value - 3.0)
            optimizer.step()
        return p.value

    def test_adam_converges(self):
        p = self._quadratic_params()
        value = self._run(Adam([p], lr=0.05), p, steps=800)
        np.testing.assert_allclose(value, 3.0, atol=1e-3)

    def test_frozen_param_not_updated(self):
        p = self._quadratic_params()
        p.trainable = False
        value = self._run(Adam([p], lr=0.1), p, steps=10)
        np.testing.assert_array_equal(value, 0.0)

    def test_validation(self):
        p = Parameter(np.zeros(1))
        with pytest.raises(ValueError):
            Adam([p], lr=-1)
        with pytest.raises(ValueError):
            Adam([p], beta1=1.0)

    def test_zero_grad(self):
        p = Parameter(np.zeros(2))
        p.grad += 5.0
        Adam([p]).zero_grad()
        assert (p.grad == 0).all()

    def test_adam_bias_correction_first_step(self):
        # After one step with constant grad g, Adam moves ~lr * sign(g).
        p = Parameter(np.zeros(1))
        opt = Adam([p], lr=0.001)
        p.grad[...] = 10.0
        opt.step()
        assert p.value[0] == pytest.approx(-0.001, rel=1e-6)


class TestTrainer:
    def _toy_problem(self, rng, n=256):
        x = rng.normal(size=(n, 3))
        w = np.array([[1.0], [-2.0], [0.5]])
        y = x @ w + 0.3
        return x, y

    def test_loss_decreases(self, rng):
        x, y = self._toy_problem(rng)
        model = mlp(3, [16], 1, seed=0)
        trainer = Trainer(model, batch_size=32, seed=0)
        history = trainer.fit(x, y, epochs=60)
        assert history.train_loss[-1] < 0.1 * history.train_loss[0]

    def test_learns_linear_map(self, rng):
        x, y = self._toy_problem(rng)
        model = mlp(3, [32, 16], 1, seed=0)
        Trainer(model, batch_size=32, seed=0).fit(x, y, epochs=100)
        pred = model.predict(x)
        assert np.mean((pred - y) ** 2) < 0.01

    def test_history_lengths(self, rng):
        x, y = self._toy_problem(rng, n=64)
        model = mlp(3, [8], 1, seed=0)
        hist = Trainer(model, seed=0).fit(x, y, epochs=5, validation=(x, y))
        assert hist.epochs == 5
        assert len(hist.val_loss) == 5
        assert len(hist.epoch_seconds) == 5
        assert hist.total_seconds > 0

    def test_deterministic(self, rng):
        x, y = self._toy_problem(rng, n=64)
        runs = []
        for _ in range(2):
            model = mlp(3, [8], 1, seed=4)
            hist = Trainer(model, batch_size=16, seed=4).fit(x, y, epochs=3)
            runs.append(hist.train_loss)
        np.testing.assert_allclose(runs[0], runs[1])

    def test_callback_early_stop(self, rng):
        x, y = self._toy_problem(rng, n=64)
        model = mlp(3, [8], 1, seed=0)
        hist = Trainer(model, seed=0).fit(
            x, y, epochs=50, callback=lambda e, h: False if e >= 2 else None
        )
        assert hist.epochs == 3

    def test_validation_input_checks(self, rng):
        model = mlp(3, [8], 1, seed=0)
        trainer = Trainer(model, seed=0)
        with pytest.raises(ValueError):
            trainer.fit(np.zeros((4, 3)), np.zeros((5, 1)), epochs=1)
        with pytest.raises(ValueError):
            trainer.fit(np.zeros((4, 3)), np.zeros((4, 1)), epochs=-1)
        with pytest.raises(ValueError):
            Trainer(model, batch_size=0)
        with pytest.raises(TypeError):
            trainer.fit(np.zeros((4, 3)), np.zeros((4, 1)), epochs=1, shuffle=False)

    def test_zero_epochs_noop(self, rng):
        x, y = self._toy_problem(rng, n=16)
        model = mlp(3, [8], 1, seed=0)
        before = model.dense_layers()[0].weight.value.copy()
        hist = Trainer(model, seed=0).fit(x, y, epochs=0)
        assert hist.epochs == 0
        np.testing.assert_array_equal(model.dense_layers()[0].weight.value, before)

    def test_history_extend(self, rng):
        x, y = self._toy_problem(rng, n=32)
        model = mlp(3, [8], 1, seed=0)
        trainer = Trainer(model, seed=0)
        h1 = trainer.fit(x, y, epochs=2)
        h2 = trainer.fit(x, y, epochs=3)
        h1.extend(h2)
        assert h1.epochs == 5
