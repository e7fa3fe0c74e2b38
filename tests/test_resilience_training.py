"""Fault-injected training: bit-exact resume and NaN/Inf recovery policies."""

import numpy as np
import pytest

from repro.nn import Adam, MSELoss, Trainer, mlp
from repro.resilience import (
    CheckpointConfig,
    CheckpointCorruptionError,
    HealthGuard,
    NumericalHealthError,
)
from repro.resilience.faults import (
    KillAtEpoch,
    NaNGradientFault,
    SimulatedCrash,
    flip_bit,
)


def make_data(n=64, seed=5):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(n, 3))
    y = x.sum(axis=1, keepdims=True)
    return x, y


def make_trainer(loss=None, batch_size=16, lr=1e-2, seed=0):
    model = mlp(3, [8], 1, seed=seed)
    return Trainer(
        model,
        loss=loss,
        optimizer=Adam(model.parameters(), lr=lr),
        batch_size=batch_size,
        seed=seed,
    )


class TestResume:
    def test_killed_run_resumes_bit_exactly(self, tmp_path):
        x, y = make_data()
        epochs = 8
        ckpt = CheckpointConfig(tmp_path / "run.npz", every=3)

        reference = make_trainer()
        ref_history = reference.fit(x, y, epochs=epochs)

        crashed = make_trainer()
        with pytest.raises(SimulatedCrash):
            crashed.fit(x, y, epochs=epochs, checkpoint=ckpt, callback=KillAtEpoch(4))

        resumed = make_trainer()
        history = resumed.fit(x, y, epochs=epochs, resume_from=ckpt.path)

        # the resumed run must be indistinguishable from the uninterrupted one
        assert history.train_loss == ref_history.train_loss
        for a, b in zip(resumed.model.parameters(), reference.model.parameters()):
            np.testing.assert_array_equal(a.value, b.value)

    def test_resume_covers_full_history(self, tmp_path):
        x, y = make_data()
        ckpt = CheckpointConfig(tmp_path / "run.npz", every=2)
        first = make_trainer()
        first.fit(x, y, epochs=4, checkpoint=ckpt)
        resumed = make_trainer()
        history = resumed.fit(x, y, epochs=6, resume_from=ckpt.path)
        assert history.epochs == 6

    def test_corrupted_checkpoint_refused(self, tmp_path):
        x, y = make_data()
        ckpt = CheckpointConfig(tmp_path / "run.npz", every=1)
        make_trainer().fit(x, y, epochs=2, checkpoint=ckpt)
        flip_bit(ckpt.path, seed=1)
        with pytest.raises(CheckpointCorruptionError):
            make_trainer().fit(x, y, epochs=4, resume_from=ckpt.path)

    def test_mismatched_training_set_refused(self, tmp_path):
        x, y = make_data()
        ckpt = CheckpointConfig(tmp_path / "run.npz", every=1)
        make_trainer().fit(x, y, epochs=2, checkpoint=ckpt)
        with pytest.raises(ValueError, match="rows"):
            make_trainer().fit(x[:32], y[:32], epochs=4, resume_from=ckpt.path)

    def test_mismatched_batching_refused(self, tmp_path):
        x, y = make_data()
        ckpt = CheckpointConfig(tmp_path / "run.npz", every=1)
        make_trainer().fit(x, y, epochs=2, checkpoint=ckpt)
        with pytest.raises(ValueError, match="batch_size"):
            make_trainer(batch_size=8).fit(x, y, epochs=4, resume_from=ckpt.path)

    def test_overshooting_checkpoint_refused(self, tmp_path):
        x, y = make_data()
        ckpt = CheckpointConfig(tmp_path / "run.npz", every=1)
        make_trainer().fit(x, y, epochs=4, checkpoint=ckpt)
        with pytest.raises(ValueError, match="epochs"):
            make_trainer().fit(x, y, epochs=2, resume_from=ckpt.path)


class TestFloat32Resume:
    """The default float32 compute resumes bit for bit.

    A float32 value survives the checkpoint's array round trip exactly, so
    the weights and Adam moments come back with every bit; a run stopped
    after two epochs and resumed to four equals an uninterrupted one.
    """

    @staticmethod
    def _recon():
        from repro.core import FCNNReconstructor

        return FCNNReconstructor(hidden_layers=(16, 8), batch_size=256, seed=0)

    def test_reconstructor_checkpoint_resumes_bit_exactly(
        self, tmp_path, hurricane_field, sample
    ):
        from repro.resilience import load_training_checkpoint

        ckpt = CheckpointConfig(tmp_path / "run.npz", every=1)
        stopped = self._recon()
        assert stopped.dtype_policy.compute == "float32"
        stopped.train(hurricane_field, sample, epochs=2, checkpoint=ckpt)

        state = load_training_checkpoint(ckpt.path)
        assert all(a.dtype == np.float32 for a in state.parameters.values())
        assert all(
            m.dtype == np.float32 for key in ("m", "v") for m in state.optimizer_state[key]
        )

        reference = self._recon()
        ref_history = reference.train(hurricane_field, sample, epochs=4)
        resumed = self._recon()
        history = resumed.train(hurricane_field, sample, epochs=4, resume_from=ckpt.path)

        assert history.train_loss == ref_history.train_loss
        for a, b in zip(resumed.model.parameters(), reference.model.parameters()):
            assert a.value.dtype == np.float32
            assert a.value.tobytes() == b.value.tobytes()


class TestHealthPolicies:
    def test_raise_policy_aborts(self):
        x, y = make_data()
        trainer = make_trainer(loss=NaNGradientFault(MSELoss(), at_calls=(0,)))
        with pytest.raises(NumericalHealthError, match="gradient"):
            trainer.fit(x, y, epochs=2, health=HealthGuard("raise"))

    def test_skip_batch_completes(self):
        x, y = make_data()
        guard = HealthGuard("skip_batch")
        trainer = make_trainer(loss=NaNGradientFault(MSELoss(), at_calls=(0,)))
        history = trainer.fit(x, y, epochs=3, health=guard)
        assert history.epochs == 3
        assert [e.action for e in guard.events] == ["skip_batch"]
        for p in trainer.model.parameters():
            assert np.all(np.isfinite(p.value))

    def test_rollback_recovers_and_halves_lr(self):
        x, y = make_data()  # 64 rows / batch 16 -> 4 gradient calls per epoch
        guard = HealthGuard("rollback")
        trainer = make_trainer(loss=NaNGradientFault(MSELoss(), at_calls=(5,)))
        lr0 = trainer.optimizer.lr
        history = trainer.fit(x, y, epochs=4, health=guard)
        assert history.epochs == 4
        assert guard.rollbacks_used == 1
        assert trainer.optimizer.lr == pytest.approx(lr0 * guard.lr_factor)
        assert any(e.kind == "rollback" for e in guard.events)
        for p in trainer.model.parameters():
            assert np.all(np.isfinite(p.value))

    def test_rollback_budget_exhausts(self):
        x, y = make_data()
        guard = HealthGuard("rollback", max_retries=2)
        trainer = make_trainer(loss=NaNGradientFault(MSELoss(), at_calls=None))
        with pytest.raises(NumericalHealthError, match="exhausted"):
            trainer.fit(x, y, epochs=4, health=guard)
        assert guard.rollbacks_used == 2

    def test_guard_validation(self):
        with pytest.raises(ValueError):
            HealthGuard("explode")
        with pytest.raises(ValueError):
            HealthGuard("rollback", max_retries=-1)
        with pytest.raises(ValueError):
            HealthGuard("rollback", lr_factor=0.0)


class TestTrainerValidation:
    def test_batch_size(self):
        model = mlp(3, [4], 1, seed=0)
        with pytest.raises(ValueError, match="batch_size"):
            Trainer(model, batch_size=0)

    def test_empty_training_set(self):
        trainer = make_trainer()
        with pytest.raises(ValueError, match="empty"):
            trainer.fit(np.zeros((0, 3)), np.zeros((0, 1)), epochs=1)

    def test_mismatched_rows_name_shapes(self):
        trainer = make_trainer()
        with pytest.raises(ValueError, match=r"\(5, 3\).*\(4, 1\)"):
            trainer.fit(np.zeros((5, 3)), np.zeros((4, 1)), epochs=1)

    def test_non_2d_rejected(self):
        trainer = make_trainer()
        with pytest.raises(ValueError):
            trainer.fit(np.zeros(5), np.zeros(5), epochs=1)

    def test_negative_epochs_rejected(self):
        x, y = make_data(8)
        with pytest.raises(ValueError, match="epochs"):
            make_trainer(batch_size=4).fit(x, y, epochs=-1)
