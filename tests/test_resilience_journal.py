"""Durable campaign journal: record/replay, torn tails, corruption, plans."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.resilience import (
    CampaignJournal,
    JournalCorruptionError,
    ResumePlan,
)
from repro.resilience.checkpoint import CheckpointCorruptionError
from repro.resilience.faults import flip_bit
from repro.resilience.journal import STAGES, TERMINAL_STAGE, content_hash
import repro.resilience.chaos as chaos


def _journal(tmp_path, **kwargs):
    return CampaignJournal(tmp_path / ".wal" / "journal.jsonl", **kwargs)


def _complete(journal, timestep, **payload):
    for stage in STAGES[:-1]:
        journal.record(timestep, stage)
    return journal.record(timestep, TERMINAL_STAGE, **payload)


# ------------------------------------------------------------- record/reload
def test_records_survive_reload(tmp_path):
    with _journal(tmp_path, config={"kind": "demo"}) as journal:
        _complete(journal, 0, row={"snr": 12.5})
        _complete(journal, 8, row={"snr": 11.0})
        journal.record(16, "sampled", field_sha="abc")

    reloaded = _journal(tmp_path, resume=True)
    assert reloaded.config == {"kind": "demo"}
    assert not reloaded.torn_tail
    assert reloaded.completed(0) and reloaded.completed(8)
    assert not reloaded.completed(16)
    assert reloaded.stage_payload(0, TERMINAL_STAGE) == {"row": {"snr": 12.5}}
    assert reloaded.stage_payload(16, "sampled") == {"field_sha": "abc"}
    reloaded.close()


def test_fresh_open_truncates_stale_journal(tmp_path):
    with _journal(tmp_path) as journal:
        _complete(journal, 0)
    with _journal(tmp_path) as journal:  # fresh run, not resume
        assert not journal.completed(0)
        assert journal.entries == []


def test_unknown_stage_rejected(tmp_path):
    with _journal(tmp_path) as journal:
        with pytest.raises(ValueError, match="unknown stage"):
            journal.record(0, "uploaded")


def test_every_record_line_is_checksummed(tmp_path):
    with _journal(tmp_path, config={"kind": "demo"}) as journal:
        _complete(journal, 0, row={"snr": 1.0})
        path = journal.path
    for line in path.read_text().splitlines():
        obj = json.loads(line)
        assert set(obj) == {"payload", "seq", "sha", "stage", "t"}


# ------------------------------------------------------------------ torn tail
def test_torn_tail_is_dropped_silently(tmp_path):
    with _journal(tmp_path, config={"kind": "demo"}) as journal:
        _complete(journal, 0)
        _complete(journal, 8)
        path = journal.path

    removed = chaos.torn_tail(path, drop_records=2, partial=True)
    assert removed > 0

    reloaded = _journal(tmp_path, resume=True, config={"kind": "demo"})
    assert reloaded.torn_tail
    assert reloaded.completed(0)
    assert not reloaded.completed(8)  # its terminal record was torn away
    # The durable prefix was rewritten: the file parses cleanly again and
    # appending continues from the right sequence number.
    _complete(reloaded, 8)
    reloaded.close()
    final = _journal(tmp_path, resume=True)
    assert not final.torn_tail
    assert final.completed(8)
    seqs = [e.seq for e in final.entries]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    final.close()


def test_interior_corruption_refuses_to_resume(tmp_path):
    with _journal(tmp_path, config={"kind": "demo"}) as journal:
        for t in (0, 8, 16):
            _complete(journal, t)
        path = journal.path
    # Flip one bit somewhere in the middle of the file: records after the
    # damaged line stay intact, so this is corruption, not a torn tail.
    flip_bit(path, seed=3)
    with pytest.raises((JournalCorruptionError, json.JSONDecodeError)):
        # A flipped bit usually breaks a mid-file record (corruption error);
        # if it lands in the final record the loader treats it as torn.
        reloaded = _journal(tmp_path, resume=True)
        if reloaded.torn_tail:
            reloaded.close()
            raise JournalCorruptionError(path, "tail flip: treated as torn")


#: The header a sharded ``run_campaign`` journal carried before that mode
#: was removed; today's run of the same campaign records it without the
#: shard keys, so the resume is refused rather than misread.
_SHARDED_HEADER = {
    "kind": "run_campaign",
    "dataset": "combustion",
    "fraction": 0.05,
    "timesteps": [0, 4, 8],
    "train_fractions": [0.01, 0.05],
    "finetune_epochs": 5,
    "finetune_strategy": "last",
    "batched_finetune": True,
    "shards": [2, 2, 1],
    "halo": 6,
}


@pytest.mark.parametrize(
    "stored, requested",
    [
        ({"fraction": 0.05}, {"fraction": 0.10}),
        (
            _SHARDED_HEADER,
            {k: v for k, v in _SHARDED_HEADER.items() if k not in ("shards", "halo")},
        ),
    ],
    ids=["fraction", "sharded-header"],
)
def test_config_mismatch_refuses_to_resume(tmp_path, stored, requested):
    with _journal(tmp_path, config=stored) as journal:
        _complete(journal, 0)
    with pytest.raises(JournalCorruptionError, match="config"):
        _journal(tmp_path, resume=True, config=requested)


def test_config_mismatch_closes_the_file_it_opened(tmp_path, monkeypatch):
    import repro.resilience.journal as journal_mod

    with _journal(tmp_path, config={"fraction": 0.05}) as journal:
        _complete(journal, 0)
    opened = []

    def spy(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(journal_mod, "open", spy, raising=False)
    with pytest.raises(JournalCorruptionError, match="config"):
        _journal(tmp_path, resume=True, config={"fraction": 0.10})
    assert opened and all(fh.closed for fh in opened)


# ----------------------------------------------------------------- planning
def test_plan_skips_contiguous_completed_prefix(tmp_path):
    with _journal(tmp_path) as journal:
        _complete(journal, 0, row={"t": 0})
        _complete(journal, 8, row={"t": 8})
        plan = journal.plan((0, 8, 16, 24))
        assert plan.completed == (0, 8)
        assert plan.remaining == (16, 24)
        assert [p["row"]["t"] for p in plan.payloads] == [0, 8]
        assert not plan.fresh


def test_plan_gap_ends_the_prefix(tmp_path):
    with _journal(tmp_path) as journal:
        _complete(journal, 0)
        _complete(journal, 16)  # 8 missing: model state is sequential
        plan = journal.plan((0, 8, 16))
        assert plan.completed == (0,)
        assert plan.remaining == (8, 16)


def test_plan_verify_callback_ends_prefix_on_failure(tmp_path):
    with _journal(tmp_path) as journal:
        _complete(journal, 0, ok=True)
        _complete(journal, 8, ok=False)
        _complete(journal, 16, ok=True)
        plan = journal.plan((0, 8, 16), verify=lambda t, p: p["ok"])
        assert plan.completed == (0,)
        assert plan.remaining == (8, 16)


def test_plan_on_empty_journal_is_fresh(tmp_path):
    with _journal(tmp_path) as journal:
        plan = journal.plan((0, 8))
        assert plan == ResumePlan((), (0, 8), ())
        assert plan.fresh


# ------------------------------------------------------------- state sidecar
def test_state_sidecar_roundtrip(tmp_path):
    flat = np.linspace(-1.0, 1.0, 257)
    with _journal(tmp_path) as journal:
        path = journal.save_state(8, flat)
        assert path.name == "state_t000008.npz"
        np.testing.assert_array_equal(journal.load_state(8), flat)


def test_state_sidecar_corruption_detected(tmp_path):
    with _journal(tmp_path) as journal:
        journal.save_state(0, np.zeros(64))
        flip_bit(journal.state_path(0), seed=1)
        with pytest.raises(CheckpointCorruptionError):
            journal.load_state(0)


# ---------------------------------------------------------------- manifest
def test_manifest_written_atomically_with_plan(tmp_path):
    with _journal(tmp_path, config={"kind": "demo"}) as journal:
        path = journal.write_manifest(
            reason="interrupted (signal 15)", completed=[0, 8], remaining=[16]
        )
        manifest = json.loads(path.read_text())
        assert manifest["completed"] == [0, 8]
        assert manifest["remaining"] == [16]
        assert manifest["config"] == {"kind": "demo"}
        assert "resume" in manifest
        assert not list(path.parent.glob("*.tmp"))


def test_failed_manifest_write_keeps_old_manifest_and_no_temp(tmp_path, monkeypatch):
    with _journal(tmp_path, config={"kind": "demo"}) as journal:
        path = journal.write_manifest(reason="first", completed=[0], remaining=[8])
        before = path.read_bytes()

        def full_disk(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("os.fsync", full_disk)
        with pytest.raises(OSError, match="No space"):
            journal.write_manifest(reason="second", completed=[0, 8], remaining=[])
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert not list(path.parent.glob("*.tmp"))


# ------------------------------------------------------------ thread safety
def test_concurrent_records_from_scheduler_threads(tmp_path):
    with _journal(tmp_path) as journal:
        timesteps = list(range(24))

        def emit(ts):
            for t in ts:
                _complete(journal, t, row={"t": t})

        threads = [
            threading.Thread(target=emit, args=(timesteps[i::3],)) for i in range(3)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()

    reloaded = _journal(tmp_path, resume=True)
    plan = reloaded.plan(timesteps)
    assert plan.completed == tuple(timesteps)
    reloaded.close()


def test_content_hash_distinguishes_arrays():
    a = np.arange(10, dtype=np.float64)
    b = a.copy()
    b[3] += 1e-12
    assert content_hash(a) == content_hash(a.copy())
    assert content_hash(a) != content_hash(b)
    assert content_hash(b"bytes") == content_hash(b"bytes")
