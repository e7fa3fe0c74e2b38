"""Unit tests for nn layers, parameters and initializers."""

import numpy as np
import pytest

from repro.nn import Dense, Parameter, ReLU, he_normal, xavier_normal
from repro.nn.initializers import get_initializer


class TestParameter:
    def test_grad_starts_zero(self):
        p = Parameter(np.ones((3, 2)))
        assert p.grad.shape == (3, 2)
        assert (p.grad == 0).all()

    def test_zero_grad(self):
        p = Parameter(np.ones(4))
        p.grad += 2.0
        p.zero_grad()
        assert (p.grad == 0).all()

    def test_trainable_default(self):
        assert Parameter(np.ones(1)).trainable is True

    def test_size(self):
        assert Parameter(np.ones((3, 5))).size == 15


class TestInitializers:
    @pytest.mark.parametrize("init", [he_normal, xavier_normal])
    def test_shape(self, init, rng):
        w = init(23, 512, rng)
        assert w.shape == (23, 512)

    def test_he_normal_variance(self, rng):
        w = he_normal(1000, 200, rng)
        assert w.std() == pytest.approx(np.sqrt(2.0 / 1000), rel=0.1)

    def test_get_initializer(self):
        assert get_initializer("he_normal") is he_normal
        with pytest.raises(ValueError):
            get_initializer("magic")


class TestDense:
    def test_forward_affine(self, rng):
        layer = Dense(3, 2, rng=rng)
        layer.weight.value[...] = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        layer.bias.value[...] = np.array([10.0, 20.0])
        x = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(layer.forward(x), [[14.0, 25.0]])

    def test_forward_shape_check(self, rng):
        layer = Dense(3, 2, rng=rng)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((4, 5)))
        with pytest.raises(ValueError):
            layer.forward(np.zeros(3))

    def test_backward_before_forward(self, rng):
        with pytest.raises(RuntimeError):
            Dense(2, 2, rng=rng).backward(np.zeros((1, 2)))

    def test_backward_accumulates(self, rng):
        layer = Dense(2, 2, rng=rng)
        x = rng.normal(size=(4, 2))
        g = rng.normal(size=(4, 2))
        layer.forward(x)
        layer.backward(g)
        first = layer.weight.grad.copy()
        layer.forward(x)
        layer.backward(g)
        np.testing.assert_allclose(layer.weight.grad, 2 * first)

    def test_parameters(self, rng):
        layer = Dense(3, 4, rng=rng)
        params = layer.parameters()
        assert len(params) == 2
        assert params[0].shape == (3, 4) and params[1].shape == (4,)

    def test_set_trainable(self, rng):
        layer = Dense(2, 2, rng=rng)
        layer.set_trainable(False)
        assert not layer.weight.trainable and not layer.bias.trainable

    def test_spec(self, rng):
        spec = Dense(23, 512, rng=rng).spec()
        assert spec == {"kind": "Dense", "in_features": 23, "out_features": 512,
                        "weight_init": "he_normal"}

    def test_rejects_bad_dims(self, rng):
        with pytest.raises(ValueError):
            Dense(0, 4, rng=rng)


class TestActivations:
    def test_relu_forward(self):
        out = ReLU().forward(np.array([[-1.0, 0.0, 2.0]]))
        np.testing.assert_allclose(out, [[0.0, 0.0, 2.0]])

    def test_relu_backward_masks(self):
        layer = ReLU()
        layer.forward(np.array([[-1.0, 3.0]]))
        grad = layer.backward(np.array([[5.0, 5.0]]))
        np.testing.assert_allclose(grad, [[0.0, 5.0]])

    @pytest.mark.parametrize("cls", [ReLU])
    def test_backward_before_forward(self, cls):
        with pytest.raises(RuntimeError):
            cls().backward(np.zeros((1, 1)))

    @pytest.mark.parametrize("cls", [ReLU])
    def test_no_parameters(self, cls):
        assert cls().parameters() == []
