"""RunRecorder: JSONL round-trips, atomic manifests, and crashed-run behavior.

Crash scenarios reuse the deterministic injectors from
``repro.resilience.faults`` — the same ones the resilience suite drives
checkpoint recovery with — so "a run record survives the faults the rest
of the system survives" is tested with the identical failure modes.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.nn import Adam, MSELoss, Trainer, mlp
from repro.obs import (
    RunRecorder,
    active_recorder,
    config_hash,
    counter,
    record_event,
    span,
)
from repro.obs import metrics as metrics_mod
from repro.obs import timing as timing_mod
from repro.obs.recorder import EVENTS_FILENAME, MANIFEST_FILENAME, NullRecorder
from repro.obs.report import load_run
from repro.resilience.faults import KillAtEpoch, SimulatedCrash, truncate_file


@pytest.fixture(autouse=True)
def _clean_obs_state():
    yield
    # a test that leaks an active recorder must not poison the others
    timing_mod.deactivate(None)
    metrics_mod.deactivate(None)
    import repro.obs.recorder as recorder_mod

    recorder_mod._ACTIVE = None


class TestRoundTrip:
    def test_events_and_manifest_round_trip(self, tmp_path):
        run_dir = tmp_path / "run-a"
        with RunRecorder(run_dir, meta={"seed": 7, "profile": "quick"}) as rec:
            with span("outer", size=2):
                with span("inner"):
                    counter("work.items").inc(2)
            record_event("checkpoint", path="ck.npz", epoch=3)
            assert active_recorder() is rec

        assert (run_dir / EVENTS_FILENAME).exists()
        assert (run_dir / MANIFEST_FILENAME).exists()

        record = load_run(run_dir)
        assert record.status == "completed"
        assert [r.name for r in record.roots] == ["outer"]
        assert [c.name for c in record.roots[0].children] == ["inner"]
        assert record.metrics["counters"]["work.items"] == 2
        kinds = [e["kind"] for e in record.events]
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
        assert "checkpoint" in kinds
        # seq is a gapless monotonic sequence
        assert [e["seq"] for e in record.events] == list(range(len(record.events)))

    def test_manifest_provenance_fields(self, tmp_path):
        meta = {"seed": 11, "dataset": "hurricane"}
        with RunRecorder(tmp_path / "run", meta=meta):
            with span("step"):
                pass
        manifest = json.loads((tmp_path / "run" / MANIFEST_FILENAME).read_text())
        assert manifest["seed"] == 11
        assert manifest["config"] == meta
        assert manifest["config_hash"] == config_hash(meta)
        assert manifest["versions"]["numpy"] == np.__version__
        assert manifest["spans"]["step"]["count"] == 1
        assert manifest["events"] == len(load_run(tmp_path / "run").events)

    def test_config_hash_is_stable_and_order_independent(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_deactivation_restores_previous_sinks(self, tmp_path):
        with RunRecorder(tmp_path / "outer-run") as outer:
            assert active_recorder() is outer
            with RunRecorder(tmp_path / "nested-run") as nested:
                assert active_recorder() is nested
            assert active_recorder() is outer
        assert active_recorder() is None
        assert timing_mod.active_tracker() is None
        assert metrics_mod.active_registry() is None

    def test_null_recorder_is_inert(self, tmp_path):
        rec = NullRecorder()
        with rec:
            rec.event("anything", x=1)
            assert active_recorder() is None
        assert rec.run_dir is None
        assert list(tmp_path.iterdir()) == []

    def test_record_event_without_recorder_is_noop(self):
        record_event("orphan", detail="nothing listens")  # must not raise


class TestCrashTolerance:
    def test_exception_finalizes_as_failed(self, tmp_path):
        run_dir = tmp_path / "crashed"
        with pytest.raises(SimulatedCrash):
            with RunRecorder(run_dir):
                with span("train.fit"):
                    raise SimulatedCrash("injected")
        manifest = json.loads((run_dir / MANIFEST_FILENAME).read_text())
        assert manifest["status"] == "failed"
        record = load_run(run_dir)
        assert record.status == "failed"
        assert record.roots[0].attrs["error"] == "SimulatedCrash"

    def test_killed_training_run_leaves_readable_prefix(self, tmp_path):
        """A KillAtEpoch-crashed fit still yields per-epoch span events."""
        gen = np.random.default_rng(0)
        x = gen.normal(size=(64, 3))
        y = x.sum(axis=1, keepdims=True)
        model = mlp(3, [8], 1, seed=0)
        trainer = Trainer(model, MSELoss(), Adam(model.parameters()), batch_size=32, seed=0)

        run_dir = tmp_path / "killed"
        with pytest.raises(SimulatedCrash):
            with RunRecorder(run_dir):
                trainer.fit(x, y, epochs=10, callback=KillAtEpoch(3))

        record = load_run(run_dir)
        assert record.status == "failed"
        epoch_spans = [e for e in record.events
                       if e["kind"] == "span_close" and e["name"] == "train.epoch"]
        assert len(epoch_spans) == 4  # epochs 0..3 completed before the kill
        assert record.metrics["counters"]["train.epochs"] == 4

    def test_hard_kill_without_finalize_reads_incomplete(self, tmp_path):
        """No run.json + a truncated final event line ⇒ a usable prefix."""
        run_dir = tmp_path / "hard-kill"
        with RunRecorder(run_dir):
            with span("train.fit"):
                with span("train.epoch"):
                    pass
        # simulate the process dying mid-write: drop the manifest, truncate
        # the stream so its final line is cut mid-JSON
        os.unlink(run_dir / MANIFEST_FILENAME)
        truncate_file(run_dir / EVENTS_FILENAME, keep_fraction=0.8)

        record = load_run(run_dir)
        assert record.status == "incomplete"
        assert record.events[0]["kind"] == "run_start"
        assert any(e["kind"] == "span_open" for e in record.events)

    def test_manifest_write_failure_leaves_no_partial_file(self, tmp_path, monkeypatch):
        run_dir = tmp_path / "no-partial"
        rec = RunRecorder(run_dir).start()
        with span("s"):
            pass
        monkeypatch.setattr("repro.obs.recorder.os.replace",
                            lambda *a: (_ for _ in ()).throw(OSError("disk full")))
        with pytest.raises(OSError):
            rec.finalize()
        monkeypatch.undo()
        assert not (run_dir / MANIFEST_FILENAME).exists()
        assert not list(run_dir.glob("*.tmp"))  # temp file cleaned up

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_drops_telemetry_instead_of_blocking(self, tmp_path):
        """A pool worker forked while another thread held the tracker's
        lock must not wait on that lock, nor write to the parent's stream."""
        run_dir = tmp_path / "forked"
        with RunRecorder(run_dir):
            tracker = timing_mod.active_tracker()
            with tracker._lock:  # as while another thread writes a span event
                pid = os.fork()
                if pid == 0:  # pragma: no cover - runs in the child
                    code = 1
                    try:
                        with span("child.work"):
                            counter("child.calls").inc()
                        record_event("child.event")
                        code = 0 if timing_mod.active_tracker() is None else 3
                    finally:
                        os._exit(code)
            deadline = time.monotonic() + 30.0
            while True:
                done, status = os.waitpid(pid, os.WNOHANG)
                if done or time.monotonic() > deadline:
                    break
                time.sleep(0.01)
            if not done:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
            with span("parent.after"):
                pass
        assert done, "forked child blocked on the parent's telemetry"
        assert os.waitstatus_to_exitcode(status) == 0
        names = {e.get("name") or e["kind"] for e in load_run(run_dir).events}
        assert "parent.after" in names
        assert not {"child.work", "child.event"} & names


class TestTrainingIntegration:
    def test_fit_emits_spans_metrics_and_checkpoint_events(self, tmp_path):
        from repro.resilience import CheckpointConfig

        gen = np.random.default_rng(1)
        x = gen.normal(size=(64, 3))
        y = x.sum(axis=1, keepdims=True)
        model = mlp(3, [8], 1, seed=0)
        trainer = Trainer(model, MSELoss(), Adam(model.parameters()), batch_size=32, seed=0)

        run_dir = tmp_path / "fit"
        ckpt = CheckpointConfig(tmp_path / "ck.npz", every=2)
        with RunRecorder(run_dir):
            trainer.fit(x, y, epochs=4, checkpoint=ckpt)

        record = load_run(run_dir)
        fit_roots = [r for r in record.roots if r.name == "train.fit"]
        assert len(fit_roots) == 1
        epochs = [c for c in fit_roots[0].children if c.name == "train.epoch"]
        assert len(epochs) == 4
        snap = record.metrics
        assert snap["counters"]["train.epochs"] == 4
        assert snap["counters"]["train.batches"] == 8  # 64 rows / 32 per batch * 4
        assert snap["counters"]["train.checkpoints"] >= 2
        assert snap["gauges"]["train.loss"] is not None
        assert snap["histograms"]["train.epoch.seconds"]["count"] == 4
        assert any(e["kind"] == "checkpoint" for e in record.events)

    def test_training_unchanged_when_disabled(self):
        """Instrumented Trainer.fit must be bit-identical with obs off vs on."""
        def run_once(record_dir=None):
            gen = np.random.default_rng(2)
            x = gen.normal(size=(48, 3))
            y = x.sum(axis=1, keepdims=True)
            model = mlp(3, [8], 1, seed=3)
            trainer = Trainer(model, MSELoss(), Adam(model.parameters()),
                              batch_size=16, seed=3)
            if record_dir is None:
                history = trainer.fit(x, y, epochs=3)
            else:
                with RunRecorder(record_dir):
                    history = trainer.fit(x, y, epochs=3)
            return history.train_loss, [p.value.copy() for p in model.parameters()]

        loss_off, params_off = run_once()
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            loss_on, params_on = run_once(record_dir=f"{tmp}/run")
        assert loss_off == loss_on
        for a, b in zip(params_off, params_on):
            np.testing.assert_array_equal(a, b)


def _walk(nodes):
    for node in nodes:
        yield node
        yield from _walk(node.children)


class TestFeatureSpans:
    """One ``fcnn.features`` span per training-set build."""

    @pytest.mark.parametrize("from_base", [False, True], ids=["rolling", "from-base"])
    def test_one_span_per_pretrain_and_timestep(self, tmp_path, from_base):
        from repro.core import FCNNReconstructor, ReconstructionPipeline
        from repro.datasets import make_dataset

        data = make_dataset("combustion", dims=(12, 12, 6), seed=0)
        pipe = ReconstructionPipeline(data, train_fractions=(0.05, 0.1))
        recon = FCNNReconstructor(hidden_layers=(16, 8), batch_size=256, seed=3)
        steps = [0, 2, 4]
        run_dir = tmp_path / "run"
        with RunRecorder(run_dir):
            pipe.train_fcnn(recon, timestep=0, epochs=1)
            pipe.run_campaign(
                recon,
                steps,
                0.05,
                finetune_epochs=1,
                finetune_strategy="last" if from_base else "full",
                batched_finetune=from_base,
                warm_pool=False,
            )
        record = load_run(run_dir)
        spans = list(_walk(record.roots))
        builds = [s for s in spans if s.name == "fcnn.features"]
        assert len(builds) == 1 + len(steps)
        assert "fcnn.features.batched" not in {s.name for s in spans}
        by_id = {s.id: s for s in spans}
        parents = [by_id[s.parent_id].name for s in builds[1:]]
        # A streamed Case-2 build nests under its prefix pass.
        want = "train.prefix" if from_base else "campaign.finetune"
        assert parents == [want] * len(steps)
        prefixes = [s for s in spans if s.name == "train.prefix"]
        rows = [s.attrs["rows"] for s in builds[1:]]
        if from_base:
            assert [s.attrs["rows"] for s in prefixes] == rows
            assert {s.attrs["width"] for s in prefixes} == {16}
            assert record.metrics["counters"]["train.prefix_rows"] == sum(rows)
        else:
            assert prefixes == []
            assert "train.prefix_rows" not in record.metrics["counters"]

    def test_a_failed_prefix_block_closes_the_build_span_first(self, tmp_path, monkeypatch):
        from repro.core import FCNNReconstructor
        from repro.datasets import make_dataset
        from repro.sampling import RandomSampler

        field = make_dataset("combustion", dims=(8, 8, 4), seed=0).field(0)
        sample = RandomSampler(seed=1).sample(field, 0.2)
        recon = FCNNReconstructor(hidden_layers=(8, 4), batch_size=16, seed=0)
        recon.train(field, sample, epochs=1)
        assert len(sample.void_indices()) > 8  # room for both blocks below

        def blocks(*args, **kwargs):
            with span("fcnn.features"):
                yield np.ones((4, 23), np.float32), np.ones((4, 4), np.float32)
                yield np.ones((4, 2), np.float32), np.ones((4, 4), np.float32)  # wrong width

        monkeypatch.setattr(recon, "_training_blocks", blocks)
        with RunRecorder(tmp_path / "run"):
            with pytest.raises(ValueError, match="input shape"):
                recon.fine_tune(field, sample, epochs=1, strategy="last")
            assert timing_mod.active_tracker().depth == 0
        assert all(layer.trainable for layer in recon.model.dense_layers())

    def test_a_failed_block_closes_the_build_span_first(self, tmp_path):
        from repro.nn.batched import BatchedTrainer, ModelStack

        stack = ModelStack.from_network(mlp(3, [8, 8], 1, seed=0), k=1)
        stack.freeze_all_but_last(1)

        def blocks():
            with span("fcnn.features"):
                yield np.ones((4, 3)), np.ones((4, 1))
                yield np.ones((4, 2)), np.ones((4, 1))  # wrong width

        trainer = BatchedTrainer(stack, batch_size=2)
        with RunRecorder(tmp_path / "run"):
            with pytest.raises(ValueError, match="input shape"):
                trainer.fit([lambda: (8, blocks())], None, epochs=1)
            assert timing_mod.active_tracker().depth == 0
