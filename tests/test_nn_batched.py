"""Identity + correctness suite for the batched multi-model engine.

The load-bearing claims, in order:

1. Training a K-member :class:`ModelStack` is **bit-identical** to K
   serial :class:`repro.nn.Trainer` runs sharing a shuffle seed — weights,
   per-epoch losses, everything, to the ulp (``==``, not ``allclose``).
2. The Case-2 frozen-prefix trajectory (prefix cache disabled) is
   bit-identical to the serial Case-2 run.
3. The Case-2 *fast path* (prefix cache enabled) computes correct
   gradients — checked against central finite differences — and is
   K-invariant (K members give each member the same bits as K=1).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Adam, MSELoss, Trainer, mlp
from repro.nn.batched import BatchedAdam, BatchedTrainer, ModelStack, batched_loss_gradient
from repro.nn.losses_weighted import WeightedMSELoss
from repro.perf import Workspace
from repro.perf.weights import restore_weights, snapshot_weights

IN, HIDDEN, OUT = 7, (16, 8), 3


def _slabs(k: int, n: int, seed: int = 42) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(k, n, IN))
    y = rng.normal(size=(k, n, OUT))
    return x, y


def _serial_reference(
    x: np.ndarray,
    y: np.ndarray,
    epochs: int,
    loss_factory,
    seed: int,
    strategy: str = "full",
    batch_size: int = 32,
) -> tuple[list[np.ndarray], list[list[float]]]:
    """K independent serial fast-path runs from the same base network."""
    flats, losses = [], []
    for k in range(len(x)):
        net = mlp(IN, list(HIDDEN), OUT, seed=0)
        if strategy == "last":
            net.freeze_all_but_last(2)
        trainer = Trainer(
            net,
            loss=loss_factory(),
            optimizer=Adam(net.parameters(), lr=1e-3),
            batch_size=batch_size,
            seed=seed,
            workspace=Workspace(),
        )
        history = trainer.fit(x[k], y[k], epochs=epochs)
        flats.append(snapshot_weights(net).data)
        losses.append(list(history.train_loss))
    return flats, losses


def _batched_run(
    x: np.ndarray,
    y: np.ndarray,
    epochs: int,
    loss_factory,
    seed: int,
    strategy: str = "full",
    batch_size: int = 32,
    workspace: Workspace | None = None,
    case2_prefix_cache: bool = True,
):
    base = mlp(IN, list(HIDDEN), OUT, seed=0)
    stack = ModelStack.from_network(base, k=len(x))
    if strategy == "last":
        stack.freeze_all_but_last(2)
    trainer = BatchedTrainer(
        stack,
        loss=loss_factory(),
        optimizer=BatchedAdam(stack.parameters(), lr=1e-3),
        batch_size=batch_size,
        seed=seed,
        workspace=workspace,
        case2_prefix_cache=case2_prefix_cache,
    )
    histories = trainer.fit(x, y, epochs=epochs)
    return stack, histories


# ---------------------------------------------------------------- identity


@pytest.mark.parametrize("loss_factory", [MSELoss, lambda: WeightedMSELoss([1.0, 0.1, 0.1])])
@pytest.mark.parametrize("k", [1, 3])
def test_batched_full_training_bit_identical_to_serial(k, loss_factory):
    x, y = _slabs(k, n=100)
    ref_flats, ref_losses = _serial_reference(x, y, epochs=3, loss_factory=loss_factory, seed=5)
    stack, histories = _batched_run(
        x, y, epochs=3, loss_factory=loss_factory, seed=5, workspace=Workspace()
    )
    for member in range(k):
        assert np.array_equal(stack.member_weights(member), ref_flats[member])
        assert histories[member].train_loss == ref_losses[member]


def test_batched_case2_no_cache_bit_identical_to_serial_case2():
    k = 3
    x, y = _slabs(k, n=90, seed=3)
    ref_flats, ref_losses = _serial_reference(
        x, y, epochs=4, loss_factory=MSELoss, seed=11, strategy="last"
    )
    stack, histories = _batched_run(
        x, y, epochs=4, loss_factory=MSELoss, seed=11, strategy="last",
        workspace=Workspace(), case2_prefix_cache=False,
    )
    for member in range(k):
        assert np.array_equal(stack.member_weights(member), ref_flats[member])
        assert histories[member].train_loss == ref_losses[member]


def test_batched_allocating_path_matches_workspace_path():
    x, y = _slabs(2, n=64, seed=9)
    with_ws, _ = _batched_run(x, y, epochs=2, loss_factory=MSELoss, seed=1, workspace=Workspace())
    without_ws, _ = _batched_run(x, y, epochs=2, loss_factory=MSELoss, seed=1, workspace=None)
    for member in range(2):
        assert np.array_equal(
            with_ws.member_weights(member), without_ws.member_weights(member)
        )


def test_case2_fast_path_is_k_invariant():
    """Member bits do not depend on how many members ride along."""
    k = 4
    x, y = _slabs(k, n=120, seed=21)
    wide, _ = _batched_run(
        x, y, epochs=3, loss_factory=MSELoss, seed=2, strategy="last", workspace=Workspace()
    )
    for member in range(k):
        solo, _ = _batched_run(
            x[member : member + 1], y[member : member + 1],
            epochs=3, loss_factory=MSELoss, seed=2, strategy="last", workspace=Workspace(),
        )
        assert np.array_equal(wide.member_weights(member), solo.member_weights(0))


def test_case2_fast_path_close_to_serial_case2():
    """The prefix cache changes matmul blocking, not the math: same run to
    rounding error (exactness is deliberately not claimed — see TRAINING.md)."""
    k = 2
    x, y = _slabs(k, n=80, seed=33)
    ref_flats, _ = _serial_reference(
        x, y, epochs=3, loss_factory=MSELoss, seed=4, strategy="last"
    )
    stack, _ = _batched_run(
        x, y, epochs=3, loss_factory=MSELoss, seed=4, strategy="last", workspace=Workspace()
    )
    for member in range(k):
        np.testing.assert_allclose(
            stack.member_weights(member), ref_flats[member], rtol=1e-9, atol=1e-12
        )


# ------------------------------------------------------------- gradients


def test_case2_frozen_prefix_gradients_match_finite_differences():
    """Suffix gradients through the cached prefix vs central differences."""
    k, n = 2, 24
    rng = np.random.default_rng(7)
    x = rng.normal(size=(k, n, IN))
    y = rng.normal(size=(k, n, OUT))
    base = mlp(IN, list(HIDDEN), OUT, seed=0)
    stack = ModelStack.from_network(base, k=k)
    stack.freeze_all_but_last(2)
    cut = stack.trainable_cut()
    loss = MSELoss()

    z = stack.forward(x, stop=cut)

    def stack_loss() -> float:
        pred = stack.forward(z, start=cut)
        return float(sum(loss.value(pred[m], y[m]) for m in range(k)))

    # Analytic gradients via the engine's own backward.
    pred = stack.forward(z, start=cut)
    stack.zero_grad()
    gbuf = np.empty(pred.shape)
    stack.backward(batched_loss_gradient(loss, pred, y, out=gbuf), stop=cut)

    eps = 1e-6
    for p in stack.parameters():
        if not p.trainable:
            assert not p.grad.any()
            continue
        flat = p.value.reshape(-1)
        grad = p.grad.reshape(-1)
        for i in rng.choice(flat.size, size=min(8, flat.size), replace=False):
            keep = flat[i]
            flat[i] = keep + eps
            up = stack_loss()
            flat[i] = keep - eps
            down = stack_loss()
            flat[i] = keep
            numeric = (up - down) / (2 * eps)
            assert abs(numeric - grad[i]) <= 1e-6 * max(1.0, abs(numeric)), (
                f"{p.name}[{i}]: analytic {grad[i]} vs numeric {numeric}"
            )


def test_frozen_prefix_grads_stay_zero_and_untouched():
    k = 2
    x, y = _slabs(k, n=40, seed=50)
    base = mlp(IN, list(HIDDEN), OUT, seed=0)
    before = snapshot_weights(base).data
    stack, _ = _batched_run(x, y, epochs=2, loss_factory=MSELoss, seed=8, strategy="last")
    cut = stack.trainable_cut()
    for layer in stack.layers[:cut]:
        for p in layer.parameters():
            assert not p.grad.any()
    # Frozen prefix weights are byte-identical to the base in every member.
    n_frozen = sum(p.size // stack.k for layer in stack.layers[:cut] for p in layer.parameters())
    for member in range(k):
        assert np.array_equal(stack.member_weights(member)[:n_frozen], before[:n_frozen])


# ------------------------------------------------------------- plumbing


def test_member_weights_layout_matches_snapshot_weights():
    base = mlp(IN, list(HIDDEN), OUT, seed=0)
    stack = ModelStack.from_network(base, k=3)
    ref = snapshot_weights(base).data
    for member in range(3):
        assert np.array_equal(stack.member_weights(member), ref)
    # and restore_weights round-trips a member back into a Sequential
    target = mlp(IN, list(HIDDEN), OUT, seed=1)
    restore_weights(target, stack.member_weights(1))
    assert np.array_equal(snapshot_weights(target).data, ref)


def test_stack_rejects_unsupported_layers():
    from repro.nn.layers import Dense, Layer
    from repro.nn.network import Sequential

    class Square(Layer):
        def forward(self, x):
            return x * x

    net = Sequential([Dense(4, 4), Square()])
    with pytest.raises(TypeError, match="cannot stack"):
        ModelStack.from_network(net, k=2)


def test_stack_validation_errors():
    base = mlp(IN, list(HIDDEN), OUT, seed=0)
    with pytest.raises(ValueError, match="at least one member"):
        ModelStack.from_network(base, k=0)
    stack = ModelStack.from_network(base, k=2)
    with pytest.raises(IndexError):
        stack.member_weights(2)
    with pytest.raises(ValueError, match="num_trainable"):
        stack.freeze_all_but_last(99)
    stack.set_all_trainable(False)
    with pytest.raises(ValueError, match="every layer is frozen"):
        stack.trainable_cut()
    # non-prefix freeze patterns are rejected
    stack.set_all_trainable(True)
    stack.dense_layers()[-1].set_trainable(False)
    with pytest.raises(ValueError, match="contiguous frozen prefix"):
        stack.trainable_cut()


def test_trainer_input_validation():
    base = mlp(IN, list(HIDDEN), OUT, seed=0)
    stack = ModelStack.from_network(base, k=2)
    trainer = BatchedTrainer(stack)
    x, y = _slabs(2, n=10)
    with pytest.raises(ValueError, match="3D"):
        trainer.fit(x[0], y[0], epochs=1)
    with pytest.raises(ValueError, match="K=2"):
        trainer.fit(x[:1], y[:1], epochs=1)
    with pytest.raises(ValueError, match="row counts"):
        trainer.fit(x, y[:, :5], epochs=1)
    with pytest.raises(ValueError, match="empty"):
        trainer.fit(x[:, :0], y[:, :0], epochs=1)
    with pytest.raises(ValueError, match="epochs"):
        trainer.fit(x, y, epochs=-1)
    with pytest.raises(ValueError, match="batch_size"):
        BatchedTrainer(stack, batch_size=0)
