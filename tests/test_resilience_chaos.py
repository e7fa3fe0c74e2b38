"""End-to-end chaos: kill campaigns anywhere, resume bit-identically.

The PR's acceptance criteria live here:

* a campaign crashed (fault or SIGTERM) mid-run and restarted with resume
  produces output **byte-identical** to an uninterrupted run;
* a poison timestep (permanent injected fault) is quarantined — the
  campaign completes with reported degradation instead of aborting.
"""

from __future__ import annotations

import os
import signal
import threading

import numpy as np
import pytest

import repro.resilience.chaos as chaos
from repro.core import FCNNReconstructor, ReconstructionPipeline
from repro.core import pipeline as pipeline_mod
from repro.datasets import make_dataset
from repro.insitu import InSituWriter
from repro.interpolation import NearestNeighborInterpolator
from repro.obs.metrics import MetricsRegistry, activate, deactivate
from repro.parallel import ParallelExecutor, parallel_reconstruct
from repro.perf.campaign import (
    CampaignGeometry,
    LocalReconstructionSink,
    WarmReconstructionPool,
    make_reconstruction_sink,
)
from repro.perf.weights import snapshot_weights
from repro.resilience import GracefulInterrupt, SupervisionPolicy
from repro.resilience.chaos import ChaosSink, Fault, FaultSchedule
from repro.resilience.faults import ShmUnavailableFault, SimulatedCrash
from repro.resilience.supervise import CampaignInterrupted
from repro.sampling import MultiCriteriaSampler

DIMS = (12, 12, 6)
TIMESTEPS = (0, 8, 16)


@pytest.fixture
def metrics():
    previous = activate(MetricsRegistry())
    try:
        yield
    finally:
        deactivate(previous)


@pytest.fixture(scope="module")
def campaign_pipeline():
    data = make_dataset("combustion", dims=DIMS, seed=0)
    return ReconstructionPipeline(
        data, train_fractions=(0.02, 0.05), keep_reconstructions=True
    )


@pytest.fixture(scope="module")
def base_model(campaign_pipeline):
    model = FCNNReconstructor(hidden_layers=(16, 8), batch_size=1024, seed=7)
    campaign_pipeline.train_fcnn(model, timestep=TIMESTEPS[0], epochs=3)
    return model


def _strip_timing(rows):
    """finetune_seconds is wall-clock; everything else must be bit-equal."""
    return [{k: v for k, v in row.items() if k != "finetune_seconds"} for row in rows]


class _OverlappedPrefetch:
    """Stage hook making the first two timesteps materialize at once.

    Wraps a fault schedule's ``fire``.  The barrier holds the first two
    ``materialize`` calls until both have started, so the two prefetch
    threads record their ``sampled`` journal entries in either order;
    ``threads`` names every thread that materialized.
    """

    def __init__(self, fire, timesteps) -> None:
        self.fire = fire
        self.first = set(timesteps[:2])
        self.barrier = threading.Barrier(2, timeout=30)
        self.threads: set[str] = set()
        self._lock = threading.Lock()

    def __call__(self, stage: str, timestep: int) -> None:
        if stage == "materialize":
            with self._lock:
                self.threads.add(threading.current_thread().name)
            if timestep in self.first:
                self.barrier.wait()
        self.fire(stage, timestep)

    def assert_two_prefetch_threads(self) -> None:
        assert len(self.threads) == 2, self.threads
        assert all("-prefetch" in name for name in self.threads), self.threads


# ----------------------------------------------------------- fault schedule
class TestFaultSchedule:
    def test_budget_and_coordinates(self):
        fault = Fault("process", timestep=8, times=2)
        assert fault.matches("process", 8)
        assert not fault.matches("process", 16)
        assert not fault.matches("emit", 8)
        fault.fired = 2
        assert not fault.matches("process", 8)

    def test_unlimited_budget(self):
        fault = Fault("reconstruct", times=-1)
        fault.fired = 10 ** 6
        assert fault.matches("reconstruct", 0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            Fault("process", kind="explode")

    def test_fire_raises_and_logs(self):
        schedule = FaultSchedule([Fault("process", timestep=8)])
        schedule.fire("process", 0)  # no match, no effect
        with pytest.raises(SimulatedCrash):
            schedule.fire("process", 8)
        schedule.fire("process", 8)  # budget spent: inert
        assert schedule.fired == [("process", 8, "raise")]

    def test_sigterm_kind_signals_own_process(self, monkeypatch):
        kills = []
        monkeypatch.setattr(os, "kill", lambda pid, sig: kills.append((pid, sig)))
        FaultSchedule([Fault("process", kind="sigterm")]).fire("process", 0)
        assert kills == [(os.getpid(), signal.SIGTERM)]

    def test_chaos_sink_targets_timesteps(self):
        class _Inner:
            def __init__(self):
                self.closed = False
                self.slots = 0

            def publish(self, timestep, values, weights):
                self.slots += 1
                return self.slots - 1

            def reconstruct(self, slot, tag):
                return ("volume", slot)

            def close(self):
                self.closed = True

        inner = _Inner()
        schedule = FaultSchedule([Fault("reconstruct", timestep=8, times=-1)])
        sink = ChaosSink(inner, schedule)
        slot0 = sink.publish(0, None, None)
        slot8 = sink.publish(8, None, None)
        assert sink.reconstruct(slot0, "fcnn") == ("volume", slot0)
        with pytest.raises(SimulatedCrash):
            sink.reconstruct(slot8, "fcnn")
        sink.close()
        assert inner.closed
        assert schedule.fired == [("reconstruct", 8, "raise")]


# ------------------------------------------- run_campaign: crash and resume
class TestRunCampaignResume:
    def _run(self, campaign_pipeline, base_model, journal_path, **kwargs):
        kwargs.setdefault("warm_pool", False)
        return campaign_pipeline.run_campaign(
            base_model.clone(),
            TIMESTEPS,
            0.05,
            finetune_epochs=2,
            journal=journal_path,
            **kwargs,
        )

    def test_crash_mid_campaign_then_resume_bit_identical(
        self, campaign_pipeline, base_model, tmp_path
    ):
        full = self._run(
            campaign_pipeline, base_model, tmp_path / "full" / "journal.jsonl"
        )

        wal = tmp_path / "crashed" / "journal.jsonl"
        schedule = FaultSchedule([Fault("process", timestep=TIMESTEPS[-1])])
        with pytest.raises(SimulatedCrash):
            # serial mode: earlier timesteps are fully emitted (journaled)
            # before the poison stage runs, like a campaign dying mid-stream
            self._run(
                campaign_pipeline,
                base_model,
                wal,
                pipeline=False,
                on_stage=schedule.fire,
            )
        assert schedule.fired  # the crash actually happened

        resumed = self._run(campaign_pipeline, base_model, wal, resume=True)
        assert resumed.resumed == len(TIMESTEPS) - 1
        assert _strip_timing(resumed.rows) == _strip_timing(full.rows)
        # Skipped timesteps contribute no volume; recomputed ones are
        # bitwise identical to the uninterrupted run's.
        for i, volume in enumerate(resumed.reconstructions):
            if i < resumed.resumed:
                assert volume is None
            else:
                assert volume.tobytes() == full.reconstructions[i].tobytes()

    def test_resume_of_untouched_journal_runs_everything(
        self, campaign_pipeline, base_model, tmp_path
    ):
        wal = tmp_path / "journal.jsonl"
        result = self._run(campaign_pipeline, base_model, wal, resume=True)
        assert result.resumed == 0
        assert len(result.rows) == len(TIMESTEPS)

    def test_resume_of_completed_campaign_replays_all_rows(
        self, campaign_pipeline, base_model, tmp_path
    ):
        wal = tmp_path / "journal.jsonl"
        full = self._run(campaign_pipeline, base_model, wal)
        resumed = self._run(campaign_pipeline, base_model, wal, resume=True)
        assert resumed.resumed == len(TIMESTEPS)
        assert _strip_timing(resumed.rows) == _strip_timing(full.rows)

    def test_torn_journal_tail_resumes_bit_identically(
        self, campaign_pipeline, base_model, tmp_path
    ):
        full = self._run(
            campaign_pipeline, base_model, tmp_path / "full" / "journal.jsonl"
        )
        wal = tmp_path / "torn" / "journal.jsonl"
        self._run(campaign_pipeline, base_model, wal)
        # Crash-truncate the journal: the last timestep's terminal records
        # are torn away, so resume must redo exactly that timestep.
        assert chaos.torn_tail(wal, drop_records=3) > 0
        resumed = self._run(campaign_pipeline, base_model, wal, resume=True)
        assert 0 < resumed.resumed < len(TIMESTEPS)
        assert _strip_timing(resumed.rows) == _strip_timing(full.rows)
        for i in range(resumed.resumed, len(TIMESTEPS)):
            assert (
                resumed.reconstructions[i].tobytes()
                == full.reconstructions[i].tobytes()
            )


# ------------------------------- batched fine-tune: crash, resume, journal
class TestBatchedResume:
    def _run(self, campaign_pipeline, base_model, journal_path, **kwargs):
        kwargs.setdefault("warm_pool", False)
        kwargs.setdefault("pipeline", False)
        return campaign_pipeline.run_campaign(
            base_model.clone(),
            TIMESTEPS,
            0.05,
            finetune_epochs=2,
            batched_finetune=True,
            journal=journal_path,
            **kwargs,
        )

    def test_crash_then_resume_with_other_block_size_bit_identical(
        self, campaign_pipeline, base_model, tmp_path
    ):
        """A from-base campaign crashed at its last timestep resumes
        bit-identically: the resume restores no weights, because every
        timestep fine-tunes from the unchanged base."""
        full = self._run(
            campaign_pipeline, base_model, tmp_path / "full" / "journal.jsonl"
        )

        wal = tmp_path / "crashed" / "journal.jsonl"
        schedule = FaultSchedule([Fault("process", timestep=TIMESTEPS[-1])])
        with pytest.raises(SimulatedCrash):
            self._run(
                campaign_pipeline,
                base_model,
                wal,
                on_stage=schedule.fire,
            )
        assert schedule.fired

        resumed = self._run(campaign_pipeline, base_model, wal, resume=True)
        assert resumed.resumed == len(TIMESTEPS) - 1
        assert _strip_timing(resumed.rows) == _strip_timing(full.rows)
        for i, volume in enumerate(resumed.reconstructions):
            if i < resumed.resumed:
                assert volume is None
            else:
                assert volume.tobytes() == full.reconstructions[i].tobytes()

    def test_serial_journal_rejected_by_batched_resume(
        self, campaign_pipeline, base_model, tmp_path
    ):
        from repro.resilience.journal import JournalCorruptionError

        wal = tmp_path / "journal.jsonl"
        campaign_pipeline.run_campaign(
            base_model.clone(), TIMESTEPS, 0.05, finetune_epochs=2,
            warm_pool=False, pipeline=False, journal=wal,
        )
        with pytest.raises(JournalCorruptionError, match="config"):
            self._run(campaign_pipeline, base_model, wal, resume=True)

    def test_insitu_sigterm_then_resume_byte_identical(self, tmp_path, two_cpus):
        data = make_dataset("combustion", dims=DIMS, seed=0)

        def writer():
            return InSituWriter(
                dataset=data,
                sampler=MultiCriteriaSampler(seed=5),
                fraction=0.05,
                train_model=True,
                train_fractions=(0.02, 0.05),
                epochs=3,
                finetune_epochs=2,
                batched_finetune=True,
            )

        full_dir = tmp_path / "full"
        writer().run(full_dir, TIMESTEPS, journal=True)
        reference = chaos.directory_digest(full_dir)

        target = tmp_path / "campaign"
        schedule = FaultSchedule(
            [Fault("process", timestep=TIMESTEPS[1], kind="sigterm")]
        )
        hook = _OverlappedPrefetch(schedule.fire, TIMESTEPS)
        with GracefulInterrupt() as interrupt:
            with pytest.raises(CampaignInterrupted) as excinfo:
                writer().run(
                    target,
                    TIMESTEPS,
                    journal=True,
                    interrupt=interrupt,
                    on_stage=hook,
                )
        hook.assert_two_prefetch_threads()
        assert schedule.fired == [("process", TIMESTEPS[1], "sigterm")]
        assert excinfo.value.next_timestep in TIMESTEPS
        writer().run(target, TIMESTEPS, resume=True)
        assert chaos.directory_digest(target) == reference


# -------------------------------------------------- poison-timestep quarantine
class TestQuarantine:
    def test_permanent_reconstruct_fault_is_quarantined(
        self, campaign_pipeline, base_model, monkeypatch, metrics
    ):
        schedule = FaultSchedule([Fault("reconstruct", timestep=8, times=-1)])
        real_factory = make_reconstruction_sink
        monkeypatch.setattr(
            pipeline_mod,
            "make_reconstruction_sink",
            lambda *a, **k: ChaosSink(real_factory(*a, **k), schedule),
        )
        result = campaign_pipeline.run_campaign(
            base_model.clone(),
            TIMESTEPS,
            0.05,
            finetune_epochs=2,
            warm_pool=False,
            supervision=SupervisionPolicy(max_retries=1),
        )
        # The campaign completed: nothing raised, every timestep present.
        assert [row["timestep"] for row in result.rows] == list(TIMESTEPS)
        assert len(result.quarantined) == 1
        rec = result.quarantined[0]
        assert rec.timestep == 8 and rec.stage == "reconstruct"
        assert rec.attempts == 2  # max_retries=1 -> two tries before giving up
        # The degraded timestep is reported, finite, and the others clean.
        by_t = {row["timestep"]: row for row in result.rows}
        assert by_t[8]["degraded_points"] > 0
        assert by_t[0]["degraded_points"] == 0
        assert by_t[16]["degraded_points"] == 0
        assert np.isfinite(result.reconstructions[1]).all()

    def test_finetune_failure_rolls_back_and_continues(
        self, campaign_pipeline, base_model
    ):
        model = base_model.clone()
        real_fine_tune = model.fine_tune
        calls = {"n": 0}

        def flaky_fine_tune(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:  # the second timestep's fine-tune
                raise RuntimeError("optimizer exploded")
            return real_fine_tune(*args, **kwargs)

        model.fine_tune = flaky_fine_tune
        result = campaign_pipeline.run_campaign(
            model,
            TIMESTEPS,
            0.05,
            finetune_epochs=2,
            warm_pool=False,
            supervision=SupervisionPolicy(),
        )
        assert [row["timestep"] for row in result.rows] == list(TIMESTEPS)
        assert len(result.quarantined) == 1
        rec = result.quarantined[0]
        assert rec.timestep == 8 and rec.stage == "fine-tune"
        # Stale-weights degradation covers the reconstructed voids.
        by_t = {row["timestep"]: row for row in result.rows}
        assert by_t[8]["degraded_points"] > 0
        assert by_t[8]["finetune_seconds"] == 0.0

    def test_quarantine_disabled_propagates(
        self, campaign_pipeline, base_model, monkeypatch
    ):
        schedule = FaultSchedule([Fault("reconstruct", timestep=8, times=-1)])
        real_factory = make_reconstruction_sink
        monkeypatch.setattr(
            pipeline_mod,
            "make_reconstruction_sink",
            lambda *a, **k: ChaosSink(real_factory(*a, **k), schedule),
        )
        with pytest.raises(SimulatedCrash):
            campaign_pipeline.run_campaign(
                base_model.clone(),
                TIMESTEPS,
                0.05,
                finetune_epochs=2,
                warm_pool=False,
                supervision=SupervisionPolicy(max_retries=0, quarantine=False),
            )


# ------------------------------------- in situ campaigns: SIGTERM and resume
class TestInSituResume:
    @pytest.fixture(scope="class")
    def writer(self):
        data = make_dataset("combustion", dims=DIMS, seed=0)
        return InSituWriter(
            dataset=data,
            sampler=MultiCriteriaSampler(seed=5),
            fraction=0.05,
            train_model=True,
            train_fractions=(0.02, 0.05),
            epochs=3,
            finetune_epochs=2,
        )

    @pytest.fixture(scope="class")
    def reference_digest(self, writer, tmp_path_factory):
        full_dir = tmp_path_factory.mktemp("insitu-full")
        writer.run(full_dir, TIMESTEPS, journal=True)
        return chaos.directory_digest(full_dir)

    def test_sigterm_then_resume_byte_identical(
        self, writer, reference_digest, tmp_path, two_cpus
    ):
        target = tmp_path / "campaign"
        schedule = FaultSchedule(
            [Fault("process", timestep=TIMESTEPS[1], kind="sigterm")]
        )
        hook = _OverlappedPrefetch(schedule.fire, TIMESTEPS)
        with GracefulInterrupt() as interrupt:
            with pytest.raises(CampaignInterrupted) as excinfo:
                writer.run(
                    target,
                    TIMESTEPS,
                    journal=True,
                    interrupt=interrupt,
                    on_stage=hook,
                )
        hook.assert_two_prefetch_threads()
        assert schedule.fired == [("process", TIMESTEPS[1], "sigterm")]
        assert excinfo.value.next_timestep in TIMESTEPS
        # The interruption left a readable partial campaign + resume manifest.
        assert (target / "manifest.json").exists()
        manifest = (target / ".wal" / "resume-manifest.json").read_text()
        assert "interrupted" in manifest

        writer.run(target, TIMESTEPS, resume=True)
        assert chaos.directory_digest(target) == reference_digest

    def test_torn_journal_then_resume_byte_identical(
        self, writer, reference_digest, tmp_path
    ):
        target = tmp_path / "campaign"
        writer.run(target, TIMESTEPS, journal=True)
        assert chaos.torn_tail(target / ".wal" / "journal.jsonl", drop_records=2) > 0
        writer.run(target, TIMESTEPS, resume=True)
        assert chaos.directory_digest(target) == reference_digest

    def test_resume_with_nothing_to_do_keeps_directory_identical(
        self, writer, reference_digest, tmp_path
    ):
        target = tmp_path / "campaign"
        writer.run(target, TIMESTEPS, journal=True)
        writer.run(target, TIMESTEPS, resume=True)
        assert chaos.directory_digest(target) == reference_digest

    def test_tampered_emitted_file_is_redone_on_resume(
        self, writer, reference_digest, tmp_path
    ):
        # The resume verifier re-hashes emitted files: a corrupted artifact
        # ends the skippable prefix and the campaign rewrites it.
        target = tmp_path / "campaign"
        writer.run(target, TIMESTEPS, journal=True)
        cloud = target / f"t{TIMESTEPS[1]:04d}.vtp"
        cloud.write_bytes(cloud.read_bytes()[:-7])
        writer.run(target, TIMESTEPS, resume=True)
        assert chaos.directory_digest(target) == reference_digest


# --------------------------------------------------- process-level shm chaos
class TestProcessFaults:
    @pytest.fixture
    def geometry(self, campaign_pipeline):
        return CampaignGeometry.from_sample(
            campaign_pipeline.sample(campaign_pipeline.field(TIMESTEPS[0]), 0.05)
        )

    def test_worker_kill_fault_recovers_bit_identically(
        self, geometry, campaign_pipeline, base_model, tmp_path
    ):
        def drive(sink):
            shell = geometry.shell()
            model = base_model.clone()
            volumes = []
            for t in TIMESTEPS:
                field = campaign_pipeline.field(t)
                geometry.refresh(shell, field)
                train = [campaign_pipeline.sample(field, f) for f in (0.02, 0.05)]
                model.fine_tune(field, train, epochs=1)
                flat = snapshot_weights(model.model).data
                slot = sink.publish(t, shell.values, {"fcnn": flat})
                volume, _report = sink.reconstruct(slot, "fcnn")
                volumes.append(volume)
            return volumes

        with LocalReconstructionSink() as local:
            local.bind(geometry, {"fcnn": base_model.clone()})
            ref = drive(local)

        fault = chaos.WorkerKillFault(tmp_path)
        pool = WarmReconstructionPool(max_workers=2, worker_fn=fault)
        try:
            pool.bind(geometry, {"fcnn": base_model.clone()})
        except OSError:
            pool.close()
            pytest.skip("shared memory unavailable on this host")
        with pool:
            got = drive(pool)
        assert len(got) == len(TIMESTEPS)
        assert [v.tobytes() for v in got] == [v.tobytes() for v in ref]

    def test_shm_create_fault_degrades_sink_to_local(self, geometry, base_model):
        with ShmUnavailableFault(mode="create") as fault:
            sink = make_reconstruction_sink(
                geometry, {"fcnn": base_model.clone()}, warm_pool=True
            )
            try:
                assert isinstance(sink, LocalReconstructionSink)
            finally:
                sink.close()
        assert fault.fires >= 1

    def test_shm_create_fault_transport_auto_falls_back(self, campaign_pipeline):
        field = campaign_pipeline.field(TIMESTEPS[0])
        sample = campaign_pipeline.sample(field, 0.05)
        with ParallelExecutor(max_workers=2) as executor:
            ref = parallel_reconstruct(
                NearestNeighborInterpolator(), sample, executor=executor
            )
            with ShmUnavailableFault(mode="create") as fault:
                got = parallel_reconstruct(
                    NearestNeighborInterpolator(), sample, executor=executor
                )
            assert fault.fires >= 1
        assert got.tobytes() == ref.tobytes()

    def test_shm_attach_fault_hits_current_process_only(self):
        from repro.perf import shm as shm_mod

        original = shm_mod._attach
        with ShmUnavailableFault(mode="attach") as fault:
            with pytest.raises(OSError, match="injected"):
                shm_mod._attach("repro-nonexistent")
            assert fault.fires == 1
        assert shm_mod._attach is original


# ----------------------------------------------------- telemetry for gating
class TestResumeTelemetry:
    def test_resume_spans_and_counters_emitted(
        self, campaign_pipeline, base_model, tmp_path, metrics
    ):
        from repro.obs import counter
        from repro.obs import timing as obs_timing

        closed = []
        tracker = obs_timing.SpanTracker(on_close=lambda s: closed.append(s.name))
        previous = obs_timing.activate(tracker)
        try:
            wal = tmp_path / "journal.jsonl"
            campaign_pipeline.run_campaign(
                base_model.clone(), TIMESTEPS, 0.05, finetune_epochs=2,
                warm_pool=False, journal=wal,
            )
            # Fresh journaled runs already emit the plan span, so
            # resume-vs-full telemetry diffs have spans on both sides.
            assert closed.count("campaign.resume.plan") == 1
            assert counter("journal.records").value >= 4 * len(TIMESTEPS)

            campaign_pipeline.run_campaign(
                base_model.clone(), TIMESTEPS, 0.05, finetune_epochs=2,
                warm_pool=False, journal=wal, resume=True,
            )
        finally:
            obs_timing.deactivate(previous)
        assert closed.count("campaign.resume.plan") == 2
        assert counter("campaign.resume.skipped").value == len(TIMESTEPS)
