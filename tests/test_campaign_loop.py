"""The one journaled timestep loop behind both campaign entry points.

``ReconstructionPipeline.run_campaign`` and ``InSituWriter.run`` run on
:func:`repro.perf.campaign.run_journaled`.  These tests hold each of them
to the loop's journal protocol: repeated timesteps are refused before
anything is written, the journal is closed however a stage fails, a crash
at any stage resumes to the uninterrupted output, and the journal layout
that earlier journals were written in stays the one resumed.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.core import FCNNReconstructor, ReconstructionPipeline
from repro.datasets import make_dataset
from repro.insitu import InSituWriter
from repro.resilience.chaos import Fault, FaultSchedule, directory_digest
from repro.resilience.faults import SimulatedCrash
from repro.resilience.journal import CampaignJournal
from repro.resilience.supervise import CampaignInterrupted
from repro.sampling import MultiCriteriaSampler

DIMS = (12, 12, 6)
TIMESTEPS = (0, 8, 16)
MIDDLE = TIMESTEPS[1]
STAGES = ("materialize", "process", "emit")
SCHEDULES = {"rolling": False, "from-base": True}


@pytest.fixture(scope="module")
def campaign_pipeline():
    data = make_dataset("combustion", dims=DIMS, seed=0)
    return ReconstructionPipeline(data, train_fractions=(0.02, 0.05), keep_reconstructions=True)


@pytest.fixture(scope="module")
def base_model(campaign_pipeline):
    model = FCNNReconstructor(hidden_layers=(16, 8), batch_size=1024, seed=7)
    campaign_pipeline.train_fcnn(model, timestep=TIMESTEPS[0], epochs=3)
    return model


def _campaign(pipe, base, from_base, timesteps=TIMESTEPS, **kwargs):
    kwargs.setdefault("pipeline", False)
    return pipe.run_campaign(
        base.clone(), timesteps, 0.05, finetune_epochs=2,
        batched_finetune=from_base, warm_pool=False, **kwargs,
    )


def _writer(from_base=False, train=True):
    return InSituWriter(
        make_dataset("combustion", dims=DIMS, seed=0),
        MultiCriteriaSampler(seed=5),
        0.05,
        train_model=train,
        train_fractions=(0.02, 0.05),
        epochs=3,
        finetune_epochs=2,
        model_kwargs={"hidden_layers": (16, 8), "batch_size": 1024, "seed": 7},
        batched_finetune=from_base,
    )


def _strip_timing(rows):
    return [{k: v for k, v in row.items() if k != "finetune_seconds"} for row in rows]


def _records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


# ------------------------------------------------------- repeated timesteps
def test_run_campaign_rejects_repeated_timesteps(campaign_pipeline, base_model, tmp_path):
    """A repeated timestep would let the resume plan count its second run
    as done once the first is journaled, so the loop refuses it first."""
    wal = tmp_path / "wal" / "journal.jsonl"
    with pytest.raises(ValueError, match=r"repeated: \[8\]"):
        _campaign(campaign_pipeline, base_model, False, (0, 8, 8), journal=wal)
    assert not wal.parent.exists()


def test_campaign_cli_rejects_repeated_timesteps(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli_main(["campaign", str(out), "--dims", "12", "12", "6", "--timesteps", "0", "4", "4"])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


# --------------------------------------------- the journal closes on a crash
@pytest.fixture
def closed_journals(monkeypatch):
    closed = []
    close = CampaignJournal.close

    def spy(journal):
        closed.append(journal)
        close(journal)

    monkeypatch.setattr(CampaignJournal, "close", spy)
    return closed


@pytest.mark.parametrize("stage", STAGES)
def test_run_campaign_closes_its_journal_when_a_stage_raises(
    campaign_pipeline, base_model, tmp_path, closed_journals, stage
):
    schedule = FaultSchedule([Fault(stage, timestep=MIDDLE)])
    with pytest.raises(SimulatedCrash):
        _campaign(
            campaign_pipeline, base_model, False,
            journal=tmp_path / "journal.jsonl", on_stage=schedule.fire,
        )
    assert len(closed_journals) == 1 and closed_journals[0]._file.closed


@pytest.mark.parametrize("stage", STAGES)
def test_insitu_writer_closes_its_journal_when_a_stage_raises(
    tmp_path, closed_journals, stage
):
    schedule = FaultSchedule([Fault(stage, timestep=MIDDLE)])
    with pytest.raises(SimulatedCrash):
        _writer(train=False).run(
            tmp_path / "camp", TIMESTEPS, pipeline=False, journal=True, on_stage=schedule.fire
        )
    assert len(closed_journals) == 1 and closed_journals[0]._file.closed


# ------------------------------------------ crash at every stage, then resume
CRASHES = [
    pytest.param(schedule, stage, False, id=f"{schedule}-{stage}")
    for schedule in SCHEDULES
    for stage in STAGES
]


@pytest.fixture(scope="module")
def campaign_reference(campaign_pipeline, base_model):
    return {
        name: _campaign(campaign_pipeline, base_model, from_base)
        for name, from_base in SCHEDULES.items()
    }


@pytest.mark.parametrize(
    "schedule, stage, pipeline",
    CRASHES + [pytest.param("rolling", "emit", True, id="rolling-emit-pipelined")],
)
def test_run_campaign_resumes_a_crash_at_any_stage(
    campaign_pipeline, base_model, campaign_reference, tmp_path, schedule, stage, pipeline
):
    wal = tmp_path / "journal.jsonl"
    faults = FaultSchedule([Fault(stage, timestep=MIDDLE)])
    with pytest.raises(SimulatedCrash):
        _campaign(
            campaign_pipeline, base_model, SCHEDULES[schedule],
            journal=wal, pipeline=pipeline, on_stage=faults.fire,
        )
    assert faults.fired == [(stage, MIDDLE, "raise")]

    resumed = _campaign(
        campaign_pipeline, base_model, SCHEDULES[schedule], journal=wal, resume=True
    )
    full = campaign_reference[schedule]
    if not pipeline:
        assert resumed.resumed == TIMESTEPS.index(MIDDLE)
    assert _strip_timing(resumed.rows) == _strip_timing(full.rows)
    for i in range(resumed.resumed, len(TIMESTEPS)):
        assert resumed.reconstructions[i].tobytes() == full.reconstructions[i].tobytes()


@pytest.fixture(scope="module")
def writer_reference(tmp_path_factory):
    digests = {}
    for name, from_base in SCHEDULES.items():
        directory = tmp_path_factory.mktemp(f"writer-{name}")
        _writer(from_base).run(directory, TIMESTEPS, pipeline=False)
        digests[name] = directory_digest(directory)
    return digests


@pytest.mark.parametrize(
    "schedule, stage, pipeline",
    CRASHES + [pytest.param("from-base", "process", True, id="from-base-process-pipelined")],
)
def test_insitu_writer_resumes_a_crash_at_any_stage(
    writer_reference, tmp_path, schedule, stage, pipeline
):
    target = tmp_path / "camp"
    faults = FaultSchedule([Fault(stage, timestep=MIDDLE)])
    with pytest.raises(SimulatedCrash):
        _writer(SCHEDULES[schedule]).run(
            target, TIMESTEPS, pipeline=pipeline, journal=True, on_stage=faults.fire
        )
    assert faults.fired == [(stage, MIDDLE, "raise")]

    _writer(SCHEDULES[schedule]).run(target, TIMESTEPS, pipeline=False, resume=True)
    assert directory_digest(target) == writer_reference[schedule]


# ------------------------------------------------------ interrupt manifest
class _StopAfter:
    """An interrupt that triggers as ``timestep`` is processed."""

    signum = 15

    def __init__(self, timestep: int) -> None:
        self.timestep = timestep
        self.triggered = False

    def __call__(self, stage: str, t: int) -> None:
        if (stage, t) == ("process", self.timestep):
            self.triggered = True


@pytest.mark.parametrize("entry", ["run_campaign", "insitu"])
def test_interrupt_manifest_has_one_reason_format(
    campaign_pipeline, base_model, tmp_path, entry
):
    interrupt = _StopAfter(MIDDLE)
    with pytest.raises(CampaignInterrupted):
        if entry == "run_campaign":
            _campaign(
                campaign_pipeline, base_model, False, journal=tmp_path / ".wal" / "journal.jsonl",
                interrupt=interrupt, on_stage=interrupt,
            )
        else:
            _writer(train=False).run(
                tmp_path, TIMESTEPS, pipeline=False, journal=True,
                interrupt=interrupt, on_stage=interrupt,
            )
    manifest = json.loads((tmp_path / ".wal" / "resume-manifest.json").read_text())
    assert manifest["reason"] == "interrupted (signal 15)"
    assert manifest["completed"] == list(TIMESTEPS[:2])
    assert manifest["remaining"] == list(TIMESTEPS[2:])


def test_run_campaign_takes_a_journal_path_only(campaign_pipeline, base_model, tmp_path):
    journal = CampaignJournal(tmp_path / "journal.jsonl")
    try:
        with pytest.raises(TypeError):
            _campaign(campaign_pipeline, base_model, False, journal=journal)
    finally:
        journal.close()


# ----------------------------------------------------------- journal layout
def _layout(records):
    """Per timestep, in order: ``(stage, sorted payload keys)``."""
    layout = {}
    for record in records[1:]:
        layout.setdefault(record["t"], []).append((record["stage"], sorted(record["payload"])))
    return layout


def _assert_one_sidecar_per_fine_tune(records, wal_dir):
    tuned = [r["t"] for r in records if r["stage"] == "fine-tuned"]
    assert sorted(p.name for p in wal_dir.glob("state_t*.npz")) == [
        f"state_t{t:06d}.npz" for t in sorted(tuned)
    ]


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_run_campaign_journal_layout(campaign_pipeline, base_model, tmp_path, schedule):
    wal = tmp_path / "journal.jsonl"
    _campaign(campaign_pipeline, base_model, SCHEDULES[schedule], journal=wal)
    records = _records(wal)
    header = {
        "kind": "run_campaign",
        "dataset": "combustion",
        "fraction": 0.05,
        "timesteps": list(TIMESTEPS),
        "train_fractions": [0.02, 0.05],
        "finetune_epochs": 2,
        "finetune_strategy": "full",
    }
    if SCHEDULES[schedule]:
        header["batched_finetune"] = True
    assert (records[0]["stage"], records[0]["payload"]) == ("meta", {"config": header})
    assert _layout(records) == {
        t: [
            ("sampled", ["field_sha"]),
            ("fine-tuned", ["weights_sha"]),
            ("reconstructed", ["volume_sha"]),
            ("emitted", ["row"]),
        ]
        for t in TIMESTEPS
    }
    assert [r["t"] for r in records[1:]] == sorted(r["t"] for r in records[1:])
    _assert_one_sidecar_per_fine_tune(records, tmp_path)


@pytest.mark.parametrize(
    "schedule, train", [("rolling", True), ("from-base", True), ("rolling", False)]
)
def test_insitu_writer_journal_layout(tmp_path, schedule, train):
    _writer(SCHEDULES[schedule], train=train).run(
        tmp_path, TIMESTEPS, pipeline=False, journal=True
    )
    records = _records(tmp_path / ".wal" / "journal.jsonl")
    header = {
        "kind": "insitu",
        "dataset": "combustion",
        "fraction": 0.05,
        "timesteps": list(TIMESTEPS),
        "train_model": train,
        "train_fractions": [0.02, 0.05],
        "epochs": 3,
        "finetune_epochs": 2,
    }
    if SCHEDULES[schedule]:
        header["batched_finetune"] = True
    assert (records[0]["stage"], records[0]["payload"]) == ("meta", {"config": header})
    tuned = [("fine-tuned", ["weights_sha"])] if train else []
    assert _layout(records) == {
        t: [("sampled", ["sample_sha"]), *tuned, ("emitted", ["base", "cloud", "files", "model"])]
        for t in TIMESTEPS
    }
    assert [r["t"] for r in records[1:]] == sorted(r["t"] for r in records[1:])
    _assert_one_sidecar_per_fine_tune(records, tmp_path / ".wal")
