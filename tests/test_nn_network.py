"""Unit tests for Sequential composition, the mlp factory and freezing."""

import numpy as np
import pytest

from repro.nn import Adam, Dense, MSELoss, ReLU, Sequential, Trainer, mlp
from repro.nn.network import from_spec
from repro.perf import Workspace


class TestSequential:
    def test_forward_composes(self, rng):
        gen = np.random.default_rng(0)
        model = Sequential([Dense(2, 3, rng=gen), ReLU(), Dense(3, 1, rng=gen)])
        out = model.forward(rng.normal(size=(5, 2)))
        assert out.shape == (5, 1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Sequential([])

    def test_predict_matches_forward(self, rng):
        model = mlp(4, [8], 2, seed=1)
        x = rng.normal(size=(10, 4))
        np.testing.assert_allclose(model.predict(x), model.forward(x))

    def test_predict_batches(self, rng):
        model = mlp(4, [8], 2, seed=1)
        x = rng.normal(size=(100, 4))
        np.testing.assert_allclose(model.predict(x, batch_size=7), model.forward(x))

    def test_num_parameters(self):
        model = mlp(23, [512, 256, 128, 64, 16], 4, seed=0)
        expected = (23 * 512 + 512) + (512 * 256 + 256) + (256 * 128 + 128) \
            + (128 * 64 + 64) + (64 * 16 + 16) + (16 * 4 + 4)
        assert model.num_parameters() == expected

    def test_zero_grad(self, rng):
        model = mlp(2, [4], 1, seed=0)
        x = rng.normal(size=(3, 2))
        model.forward(x)
        model.backward(np.ones((3, 1)))
        model.zero_grad()
        assert all((p.grad == 0).all() for p in model.parameters())

    def test_dense_layers(self):
        model = mlp(2, [4, 4], 1, seed=0)
        assert len(model.dense_layers()) == 3

    def test_predict_runs_in_eval_mode(self, rng):
        model = mlp(4, [8], 2, seed=1)
        x = rng.normal(size=(8, 4))
        np.testing.assert_array_equal(model.predict(x), model.predict(x))
        # Eval mode keeps no input or mask, so no backward can follow...
        with pytest.raises(RuntimeError, match="before forward"):
            model.backward(np.ones((8, 2)))
        # ...and train mode is restored afterwards.
        assert all(layer.training is True for layer in model.layers)
        model.forward(x)
        model.backward(np.ones((8, 2)))
        assert any((p.grad != 0).any() for p in model.parameters())


class TestFreezing:
    def test_freeze_all_but_last(self):
        model = mlp(23, [512, 256, 128, 64, 16], 4, seed=0)
        model.freeze_all_but_last(2)
        dense = model.dense_layers()
        assert [l.trainable for l in dense] == [False, False, False, False, True, True]

    def test_freeze_validation(self):
        model = mlp(2, [4], 1, seed=0)
        with pytest.raises(ValueError):
            model.freeze_all_but_last(0)
        with pytest.raises(ValueError):
            model.freeze_all_but_last(3)

    def test_set_all_trainable(self):
        model = mlp(2, [4, 4], 1, seed=0)
        model.freeze_all_but_last(1)
        model.set_all_trainable(True)
        assert all(l.trainable for l in model.dense_layers())

    def test_frozen_params_flagged(self):
        model = mlp(2, [4, 4], 1, seed=0)
        model.freeze_all_but_last(1)
        frozen = [p for layer in model.dense_layers()[:-1] for p in layer.parameters()]
        assert all(not p.trainable for p in frozen)


class _FullBackward(Sequential):
    """Backprop through every layer down to the network input."""

    def backward(self, grad_out):
        ws = self.workspace
        grad = np.asarray(grad_out, dtype=np.float64 if ws is None else ws.dtype)
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad


def _case(strategy: str, network_cls=Sequential) -> Sequential:
    model = network_cls(mlp(6, [16, 12, 8, 4], 3, seed=2).layers)
    if strategy == "last":
        model.freeze_all_but_last(2)
    return model


class TestBackwardStop:
    """Backward stops at the lowest trainable layer, with unchanged results."""

    @pytest.mark.parametrize("workspace", [False, True], ids=["slow", "workspace"])
    @pytest.mark.parametrize("strategy", ["full", "last"], ids=["case1", "case2"])
    def test_gradients_bit_identical_to_full_backward(self, strategy, workspace):
        rng = np.random.default_rng(4)
        x, g = rng.normal(size=(40, 6)), rng.normal(size=(40, 3))
        grads = []
        for cls in (Sequential, _FullBackward):
            model = _case(strategy, cls)
            if workspace:
                model.attach_workspace(Workspace())
            model.zero_grad()
            model.forward(x)
            model.backward(g)
            grads.append([p.grad.copy() for p in model.parameters() if p.trainable])
        stopped, full = grads
        assert len(stopped) == (4 if strategy == "last" else 10)
        for mine, theirs in zip(stopped, full):
            assert mine.tobytes() == theirs.tobytes()

    @pytest.mark.parametrize("workspace", [False, True], ids=["slow", "workspace"])
    @pytest.mark.parametrize("strategy", ["full", "last"], ids=["case1", "case2"])
    def test_training_bit_identical_to_full_backward(self, strategy, workspace):
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=(300, 6)), rng.normal(size=(300, 3))
        params = []
        for cls in (Sequential, _FullBackward):
            model = _case(strategy, cls)
            Trainer(
                model,
                loss=MSELoss(),
                optimizer=Adam(model.parameters()),
                batch_size=64,
                seed=1,
                workspace=Workspace() if workspace else None,
            ).fit(x, y, epochs=3)
            params.append([p.value.copy() for p in model.parameters()])
        for mine, theirs in zip(*params):
            assert mine.tobytes() == theirs.tobytes()

    @pytest.mark.parametrize("strategy,stop", [("full", 0), ("last", 6)])
    def test_no_layer_below_the_stop_runs_backward(self, strategy, stop, monkeypatch):
        model = _case(strategy)
        calls = []
        for i, layer in enumerate(model.layers):
            def spy(grad, *args, _i=i, _inner=layer.backward, **kwargs):
                calls.append((_i, kwargs.get("need_input_grad", True)))
                return _inner(grad, *args, **kwargs)

            monkeypatch.setattr(layer, "backward", spy)
        model.forward(np.ones((5, 6)))
        assert model.backward(np.ones((5, 3))) is None
        top = len(model.layers) - 1
        assert calls == [(i, True) for i in range(top, stop, -1)] + [(stop, False)]

    def test_fully_frozen_network_runs_no_backward(self):
        model = mlp(3, [4], 2, seed=0)
        model.set_all_trainable(False)
        model.forward(np.ones((2, 3)))
        model.backward(np.ones((2, 2)))
        assert all((p.grad == 0).all() for p in model.parameters())

    def test_dense_skips_input_gradient_on_request(self):
        layer = Dense(4, 3, rng=np.random.default_rng(1))
        x = np.random.default_rng(0).normal(size=(5, 4))
        layer.forward(x)
        assert layer.backward(np.ones((5, 3))).shape == x.shape
        grads = [p.grad.copy() for p in layer.parameters()]
        for p in layer.parameters():
            p.zero_grad()
        assert layer.backward(np.ones((5, 3)), need_input_grad=False) is None
        for p, g in zip(layer.parameters(), grads):
            assert p.grad.tobytes() == g.tobytes()


class TestSpecRoundtrip:
    def test_spec_structure(self):
        model = mlp(23, [16, 8], 4, seed=0)
        spec = model.spec()
        kinds = [s["kind"] for s in spec]
        assert kinds == ["Dense", "ReLU", "Dense", "ReLU", "Dense"]

    def test_from_spec_same_architecture(self, rng):
        model = mlp(5, [7, 3], 2, seed=0)
        rebuilt = from_spec(model.spec(), rng=np.random.default_rng(1))
        assert [l.spec() for l in rebuilt.layers] == [l.spec() for l in model.layers]

    def test_from_spec_unknown_kind(self):
        with pytest.raises(ValueError):
            from_spec([{"kind": "Conv3D"}])

    @pytest.mark.parametrize("kind", ["Tanh", "Sigmoid", "Identity", "LayerNorm", "Dropout"])
    def test_from_spec_names_a_removed_layer_kind(self, kind):
        spec = mlp(3, [4], 1, seed=0).spec()
        spec.insert(2, {"kind": kind})
        with pytest.raises(ValueError, match=f"unknown layer kind '{kind}'"):
            from_spec(spec)

    @pytest.mark.parametrize("init", ["he_uniform", "xavier_uniform", "zeros"])
    def test_from_spec_names_a_removed_initializer(self, init):
        spec = mlp(3, [4], 1, seed=0).spec()
        spec[0]["weight_init"] = init
        with pytest.raises(ValueError, match=f"unknown initializer '{init}'"):
            from_spec(spec)

    def test_clone_architecture_fresh_weights(self):
        model = mlp(3, [4], 1, seed=0)
        clone = model.clone_architecture(rng=np.random.default_rng(99))
        assert not np.allclose(
            model.dense_layers()[0].weight.value, clone.dense_layers()[0].weight.value
        )


class TestMlpFactory:
    def test_paper_architecture(self):
        model = mlp(23, [512, 256, 128, 64, 16], 4, seed=0)
        widths = [(l.in_features, l.out_features) for l in model.dense_layers()]
        assert widths == [(23, 512), (512, 256), (256, 128), (128, 64), (64, 16), (16, 4)]

    def test_seed_reproducible(self):
        a = mlp(4, [8], 2, seed=42)
        b = mlp(4, [8], 2, seed=42)
        np.testing.assert_array_equal(
            a.dense_layers()[0].weight.value, b.dense_layers()[0].weight.value
        )

    def test_he_blocks_and_xavier_head_are_fixed(self):
        spec = mlp(4, [8, 6], 2, seed=0).spec()
        assert [s["weight_init"] for s in spec if s["kind"] == "Dense"] == [
            "he_normal", "he_normal", "xavier_normal"
        ]
        for removed in ({"activation": "ReLU"}, {"weight_init": "he_normal"}):
            with pytest.raises(TypeError):
                mlp(4, [8], 2, **removed)
