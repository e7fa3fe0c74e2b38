"""Property-based tests for the nn engine."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import Adam, MSELoss, Trainer, mlp


class TestNetworkProperties:
    @given(
        st.integers(1, 16),     # in features
        st.integers(1, 32),     # hidden width
        st.integers(1, 8),      # out features
        st.integers(1, 64),     # batch size
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_forward_shape(self, fin, hidden, fout, batch, seed):
        model = mlp(fin, [hidden], fout, seed=seed % 1000)
        x = np.random.default_rng(seed).normal(size=(batch, fin))
        assert model.forward(x).shape == (batch, fout)

    @given(st.integers(0, 2**31 - 1), st.integers(1, 50))
    @settings(max_examples=20, deadline=None)
    def test_predict_equals_forward_any_batching(self, seed, batch_size):
        model = mlp(5, [8, 4], 2, seed=0)
        x = np.random.default_rng(seed).normal(size=(37, 5))
        np.testing.assert_allclose(
            model.predict(x, batch_size=batch_size), model.forward(x)
        )

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_frozen_layers_never_move(self, seed):
        rng = np.random.default_rng(seed)
        model = mlp(3, [6, 6, 6], 1, seed=0)
        model.freeze_all_but_last(1)
        frozen_before = [l.weight.value.copy() for l in model.dense_layers()[:-1]]

        trainer = Trainer(model, loss=MSELoss(),
                          optimizer=Adam(model.parameters()), batch_size=8, seed=0)
        trainer.fit(rng.normal(size=(16, 3)), rng.normal(size=(16, 1)), epochs=3)
        for before, layer in zip(frozen_before, model.dense_layers()[:-1]):
            np.testing.assert_array_equal(before, layer.weight.value)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_gradient_accumulation_linear(self, seed):
        # backward(a) then backward(b) accumulates the same grads as
        # backward over the concatenated batch (scaled appropriately).
        rng = np.random.default_rng(seed)
        model = mlp(4, [6], 2, seed=1)
        x1, x2 = rng.normal(size=(3, 4)), rng.normal(size=(5, 4))
        g1, g2 = rng.normal(size=(3, 2)), rng.normal(size=(5, 2))

        model.zero_grad()
        model.forward(x1)
        model.backward(g1)
        model.forward(x2)
        model.backward(g2)
        accumulated = [p.grad.copy() for p in model.parameters()]

        model.zero_grad()
        model.forward(np.concatenate([x1, x2]))
        model.backward(np.concatenate([g1, g2]))
        joint = [p.grad.copy() for p in model.parameters()]
        for a, b in zip(accumulated, joint):
            np.testing.assert_allclose(a, b, atol=1e-10)
