"""Finite-difference verification of every backward pass.

The analytic gradient of the loss with respect to each parameter and to the
network input must match central finite differences — the canonical
correctness test for a hand-written autodiff.
"""

import numpy as np
import pytest

from repro.nn import Dense, MSELoss, ReLU, Sequential, WeightedMSELoss, mlp

EPS = 1e-6
TOL = 1e-5


def numeric_param_grad(model, loss, x, y, param) -> np.ndarray:
    """Central finite differences of loss wrt one parameter tensor."""
    grad = np.zeros_like(param.value)
    flat = param.value.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + EPS
        up = loss.value(model.forward(x), y)
        flat[i] = orig - EPS
        down = loss.value(model.forward(x), y)
        flat[i] = orig
        gflat[i] = (up - down) / (2 * EPS)
    return grad


def analytic_grads(model, loss, x, y):
    model.zero_grad()
    pred = model.forward(x)
    model.backward(loss.gradient(pred, y))


@pytest.fixture
def data(rng):
    x = rng.normal(size=(7, 4))
    y = rng.normal(size=(7, 2))
    return x, y


def small_net(activation_cls, rng):
    gen = np.random.default_rng(3)
    return Sequential([
        Dense(4, 5, rng=gen),
        activation_cls(),
        Dense(5, 2, rng=gen),
    ])


class TestParameterGradients:
    @pytest.mark.parametrize("activation", [ReLU])
    def test_all_parameters(self, activation, data, rng):
        x, y = data
        # Shift inputs away from ReLU kinks so finite differences are valid.
        x = x + 0.05
        model = small_net(activation, rng)
        loss = MSELoss()
        analytic_grads(model, loss, x, y)
        for p in model.parameters():
            numeric = numeric_param_grad(model, loss, x, y, p)
            np.testing.assert_allclose(p.grad, numeric, rtol=TOL, atol=TOL)

    def test_weighted_mse(self, data, rng):
        x, y = data
        x = x + 0.05  # off the ReLU kinks
        model = small_net(ReLU, rng)
        loss = WeightedMSELoss([1.0, 0.25])
        analytic_grads(model, loss, x, y)
        for p in model.parameters():
            numeric = numeric_param_grad(model, loss, x, y, p)
            np.testing.assert_allclose(p.grad, numeric, rtol=TOL, atol=TOL)

    def test_deep_paper_shape_network(self, rng):
        # The actual architecture (scaled down): 23 -> ladder -> 4.
        model = mlp(23, [32, 16, 8], 4, seed=5)
        x = rng.normal(size=(5, 23))
        y = rng.normal(size=(5, 4))
        loss = MSELoss()
        analytic_grads(model, loss, x, y)
        # Spot-check the first and last Dense layers (full check is O(n^2)).
        for p in model.dense_layers()[0].parameters() + model.dense_layers()[-1].parameters():
            numeric = numeric_param_grad(model, loss, x, y, p)
            np.testing.assert_allclose(p.grad, numeric, rtol=1e-4, atol=1e-5)


class TestInputGradient:
    def test_input_gradient_matches(self, rng):
        # Sequential.backward stops below the network input, so chain the
        # layers' own backward passes, which still return input gradients.
        model = small_net(ReLU, rng)
        loss = MSELoss()
        x = rng.normal(size=(3, 4)) + 0.05  # off the ReLU kinks
        y = rng.normal(size=(3, 2))
        model.zero_grad()
        pred = model.forward(x)
        dx = loss.gradient(pred, y)
        for layer in reversed(model.layers):
            dx = layer.backward(dx)

        numeric = np.zeros_like(x)
        for i in range(x.size):
            xp = x.copy().ravel()
            xp[i] += EPS
            up = loss.value(model.forward(xp.reshape(x.shape)), y)
            xm = x.copy().ravel()
            xm[i] -= EPS
            down = loss.value(model.forward(xm.reshape(x.shape)), y)
            numeric.ravel()[i] = (up - down) / (2 * EPS)
        np.testing.assert_allclose(dx, numeric, rtol=TOL, atol=TOL)
