"""Workspace vs allocating ``repro.nn`` paths: bit-identical losses, weights and predictions.

The workspace arena's contract is that with float64 compute it changes
*where* results are written, never what they are.  These tests run the
two ``repro.nn`` paths side by side — including a killed-and-resumed run
reusing the resilience fault fixtures — and demand exact equality, not
tolerances.  ``FCNNReconstructor`` has one inference path;
``tests/test_oracle.py`` anchors its float64 reconstruction.
"""

import numpy as np
import pytest

from repro.nn import Adam, MSELoss, Trainer, WeightedMSELoss, mlp
from repro.perf import Workspace
from repro.resilience import CheckpointConfig
from repro.resilience.faults import KillAtEpoch, SimulatedCrash

EPOCHS = 5


def make_data(n=192, seed=5):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(n, 6))
    y = np.stack([x.sum(axis=1), x[:, 0] * x[:, 1]], axis=1)
    return x, y


def make_trainer(loss=None, seed=0, workspace=None, batch_size=32):
    model = mlp(6, [16, 8], 2, seed=seed)
    return Trainer(
        model,
        loss=loss,
        optimizer=Adam(model.parameters(), lr=1e-2),
        batch_size=batch_size,
        seed=seed,
        workspace=workspace,
    )


def assert_same_model(a, b):
    for pa, pb in zip(a.parameters(), b.parameters()):
        np.testing.assert_array_equal(pa.value, pb.value)


class TestTrainingBitExact:
    @pytest.mark.parametrize("loss", [None, WeightedMSELoss([1.0, 0.25])])
    def test_five_epochs_identical_losses_and_weights(self, loss):
        x, y = make_data()
        slow = make_trainer(loss=loss)
        h_slow = slow.fit(x, y, epochs=EPOCHS)
        fast = make_trainer(loss=loss, workspace=Workspace())
        h_fast = fast.fit(x, y, epochs=EPOCHS)
        assert h_slow.train_loss == h_fast.train_loss
        assert_same_model(slow.model, fast.model)

    def test_uneven_final_batch(self):
        x, y = make_data(n=100)  # 100 rows / batch 32 -> remainder batch of 4
        slow = make_trainer()
        fast = make_trainer(workspace=Workspace())
        assert slow.fit(x, y, epochs=3).train_loss == fast.fit(x, y, epochs=3).train_loss
        assert_same_model(slow.model, fast.model)

    def test_validation_path_identical(self):
        x, y = make_data()
        xv, yv = make_data(n=48, seed=9)
        slow = make_trainer()
        fast = make_trainer(workspace=Workspace())
        h_slow = slow.fit(x, y, epochs=3, validation=(xv, yv))
        h_fast = fast.fit(x, y, epochs=3, validation=(xv, yv))
        assert h_slow.val_loss == h_fast.val_loss

    def test_workspace_detached_after_fit(self):
        x, y = make_data()
        trainer = make_trainer(workspace=Workspace())
        trainer.fit(x, y, epochs=1)
        assert trainer.model.workspace is None

    def test_resumed_fast_run_matches_uninterrupted_slow_run(self, tmp_path):
        x, y = make_data()
        ckpt = CheckpointConfig(tmp_path / "run.npz", every=2)

        reference = make_trainer()
        ref_history = reference.fit(x, y, epochs=EPOCHS)

        crashed = make_trainer(workspace=Workspace())
        with pytest.raises(SimulatedCrash):
            crashed.fit(x, y, epochs=EPOCHS, checkpoint=ckpt, callback=KillAtEpoch(2))

        resumed = make_trainer(workspace=Workspace())
        history = resumed.fit(x, y, epochs=EPOCHS, resume_from=ckpt.path)

        assert history.train_loss == ref_history.train_loss
        assert_same_model(resumed.model, reference.model)

    def test_fast_checkpoint_resumes_on_slow_path(self, tmp_path):
        """Checkpoints are path-agnostic: fast writes, slow resumes, same run."""
        x, y = make_data()
        ckpt = CheckpointConfig(tmp_path / "run.npz", every=2)
        reference = make_trainer()
        ref_history = reference.fit(x, y, epochs=EPOCHS)

        crashed = make_trainer(workspace=Workspace())
        with pytest.raises(SimulatedCrash):
            crashed.fit(x, y, epochs=EPOCHS, checkpoint=ckpt, callback=KillAtEpoch(2))

        resumed = make_trainer()  # no workspace: the allocating path
        history = resumed.fit(x, y, epochs=EPOCHS, resume_from=ckpt.path)
        assert history.train_loss == ref_history.train_loss
        assert_same_model(resumed.model, reference.model)


class TestInferenceBitExact:
    def test_predict_matches_detached_predict(self):
        model = mlp(6, [16, 8], 2, seed=1)
        x = np.random.default_rng(2).normal(size=(1000, 6))
        slow = model.predict(x, batch_size=256)
        model.attach_workspace(Workspace())
        fast = model.predict(x, batch_size=256)
        model.detach_workspace()
        np.testing.assert_array_equal(slow, fast)

    def test_loss_gradient_out_matches_allocating(self):
        rng = np.random.default_rng(3)
        p, t = rng.normal(size=(32, 4)), rng.normal(size=(32, 4))
        for loss in (MSELoss(), WeightedMSELoss([1.0, 0.1, 0.1, 0.1])):
            assert loss.supports_out
            out = np.empty_like(p)
            np.testing.assert_array_equal(
                loss.gradient(p, t), loss.gradient(p, t, out=out)
            )
