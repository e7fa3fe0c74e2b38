"""Atomic, checksummed checkpoints vs injected on-disk corruption."""

import numpy as np
import pytest

from repro.nn import Adam, Trainer, mlp
from repro.nn.serialization import load_model, save_model
from repro.resilience import (
    CheckpointConfig,
    CheckpointCorruptionError,
    atomic_write,
    atomic_write_npz,
    load_training_checkpoint,
    read_verified_npz,
    save_training_checkpoint,
)
from repro.resilience.faults import flip_bit, truncate_file


class TestAtomicWrite:
    def test_commits_what_the_callback_writes(self, tmp_path):
        path = atomic_write(tmp_path / "out.bin", lambda fh: fh.write(b"\x00new"))
        assert path == tmp_path / "out.bin"
        assert path.read_bytes() == b"\x00new"
        atomic_write(path, lambda fh: fh.write(b"second\n"))
        assert path.read_bytes() == b"second\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_failing_callback_keeps_old_file_and_no_temp(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("old")

        def fail(fh):
            fh.write(b"half a fi")
            raise RuntimeError("serializer failed")

        with pytest.raises(RuntimeError, match="serializer failed"):
            atomic_write(path, fail)
        assert path.read_text() == "old"
        assert not list(tmp_path.glob("*.tmp"))


class TestAtomicArchive:
    def test_roundtrip(self, tmp_path, rng):
        arrays = {"a": rng.normal(size=(4, 3)), "b": np.arange(5)}
        path = atomic_write_npz(tmp_path / "state.npz", arrays)
        loaded = read_verified_npz(path)
        assert set(loaded) == {"a", "b"}
        np.testing.assert_array_equal(loaded["a"], arrays["a"])
        np.testing.assert_array_equal(loaded["b"], arrays["b"])

    def test_appends_npz_suffix(self, tmp_path):
        path = atomic_write_npz(tmp_path / "state", {"a": np.zeros(2)})
        assert path.name == "state.npz"
        assert path.exists()

    def test_reserved_name_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            atomic_write_npz(tmp_path / "s.npz", {"__checksum__": np.zeros(1)})

    def test_no_temp_files_left_behind(self, tmp_path):
        atomic_write_npz(tmp_path / "state.npz", {"a": np.zeros(8)})
        assert [p.name for p in tmp_path.iterdir()] == ["state.npz"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_verified_npz(tmp_path / "absent.npz")

    def test_truncation_detected(self, tmp_path, rng):
        path = atomic_write_npz(tmp_path / "s.npz", {"a": rng.normal(size=256)})
        truncate_file(path, keep_fraction=0.5)
        with pytest.raises(CheckpointCorruptionError):
            read_verified_npz(path)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_bit_flip_detected(self, tmp_path, rng, seed):
        # compressed=False keeps the payload raw so a flipped bit reaches the
        # checksum comparison instead of always tripping zlib first
        path = atomic_write_npz(
            tmp_path / "s.npz", {"a": rng.normal(size=512)}, compressed=False
        )
        flip_bit(path, seed=seed)
        with pytest.raises(CheckpointCorruptionError):
            read_verified_npz(path)

    def test_legacy_archive_without_checksum_loads(self, tmp_path, rng):
        a = rng.normal(size=(3, 3))
        path = tmp_path / "legacy.npz"
        np.savez(path, a=a)  # pre-checksum writer
        loaded = read_verified_npz(path)
        np.testing.assert_array_equal(loaded["a"], a)

    def test_error_names_path_and_reason(self, tmp_path):
        path = atomic_write_npz(tmp_path / "s.npz", {"a": np.zeros(64)})
        truncate_file(path, keep_fraction=0.3)
        with pytest.raises(CheckpointCorruptionError) as err:
            read_verified_npz(path)
        assert err.value.path == path
        assert str(path) in str(err.value)


class TestCheckpointConfig:
    def test_interval_validation(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointConfig(tmp_path / "c.npz", every=0)

    def test_due_schedule(self, tmp_path):
        config = CheckpointConfig(tmp_path / "c.npz", every=3)
        due = [e for e in range(1, 11) if config.due(e, 10)]
        assert due == [3, 6, 9, 10]  # every third epoch plus the final one


class TestTrainingCheckpoint:
    def _trained(self, rng, epochs=3):
        model = mlp(3, [8], 1, seed=0)
        trainer = Trainer(
            model, optimizer=Adam(model.parameters(), lr=1e-2), batch_size=16, seed=0
        )
        x = rng.normal(size=(48, 3))
        y = x.sum(axis=1, keepdims=True)
        trainer.fit(x, y, epochs=epochs)
        return model, trainer

    def test_roundtrip(self, tmp_path, rng):
        model, trainer = self._trained(rng)
        gen = np.random.default_rng(11)
        path = save_training_checkpoint(
            tmp_path / "ck.npz",
            model=model,
            optimizer=trainer.optimizer,
            rng=gen,
            history=trainer.fit(rng.normal(size=(16, 3)), rng.normal(size=(16, 1)), epochs=1),
            epoch=4,
            meta={"rows": 48},
        )
        ckpt = load_training_checkpoint(path)
        assert ckpt.epoch == 4
        assert ckpt.meta == {"rows": 48}
        assert ckpt.rng_state == gen.bit_generator.state
        fresh = mlp(3, [8], 1, seed=99)
        fresh_opt = Adam(fresh.parameters(), lr=1.0)
        restored_rng = np.random.default_rng(0)
        ckpt.restore(fresh, fresh_opt, restored_rng)
        for a, b in zip(fresh.parameters(), model.parameters()):
            np.testing.assert_array_equal(a.value, b.value)
        assert fresh_opt.lr == trainer.optimizer.lr
        assert restored_rng.bit_generator.state == gen.bit_generator.state

    def test_missing_state_record(self, tmp_path):
        path = atomic_write_npz(tmp_path / "ck.npz", {"param.layer0.w": np.zeros(2)})
        with pytest.raises(CheckpointCorruptionError, match="training-state"):
            load_training_checkpoint(path)

    def test_architecture_mismatch_rejected(self, tmp_path, rng):
        model, trainer = self._trained(rng)
        path = save_training_checkpoint(
            tmp_path / "ck.npz",
            model=model,
            optimizer=trainer.optimizer,
            rng=np.random.default_rng(0),
            history=trainer.fit(rng.normal(size=(16, 3)), rng.normal(size=(16, 1)), epochs=1),
            epoch=1,
        )
        ckpt = load_training_checkpoint(path)
        other = mlp(3, [5], 1, seed=0)
        with pytest.raises(ValueError):
            ckpt.restore(other, Adam(other.parameters()), np.random.default_rng(0))


class TestModelSerialization:
    def _trained_model(self, rng):
        model = mlp(2, [6], 1, seed=1)
        trainer = Trainer(
            model, optimizer=Adam(model.parameters(), lr=1e-2), batch_size=8, seed=1
        )
        x = rng.normal(size=(24, 2))
        trainer.fit(x, x.sum(axis=1, keepdims=True), epochs=2)
        return model

    def test_truncated_model_rejected(self, tmp_path, rng):
        model = self._trained_model(rng)
        save_model(tmp_path / "m.npz", model)
        truncate_file(tmp_path / "m.npz", keep_fraction=0.6)
        with pytest.raises(CheckpointCorruptionError):
            load_model(tmp_path / "m.npz")

    def test_bit_flipped_model_never_loads_wrong_weights(self, tmp_path, rng):
        # A flipped bit either breaks the load (archive/checksum error) or
        # hit inert zip metadata — it must never load altered weights.
        model = self._trained_model(rng)
        pristine = tmp_path / "m.npz"
        save_model(pristine, model)
        payload = pristine.read_bytes()
        rejected = 0
        for seed in range(8):
            target = tmp_path / f"m{seed}.npz"
            target.write_bytes(payload)
            flip_bit(target, seed=seed)
            try:
                loaded, _ = load_model(target)
            except CheckpointCorruptionError:
                rejected += 1
            else:
                for a, b in zip(loaded.parameters(), model.parameters()):
                    np.testing.assert_array_equal(a.value, b.value)
        assert rejected > 0

    def test_intact_model_roundtrips(self, tmp_path, rng):
        model = self._trained_model(rng)
        save_model(tmp_path / "m.npz", model)
        loaded, _ = load_model(tmp_path / "m.npz")
        for a, b in zip(loaded.parameters(), model.parameters()):
            np.testing.assert_array_equal(a.value, b.value)
