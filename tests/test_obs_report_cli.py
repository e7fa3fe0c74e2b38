"""Report rendering, run diffing, and the ``repro obs report`` CLI."""

from __future__ import annotations

import json

import pytest

from repro.obs.cli import main as obs_main
from repro.obs.report import (
    build_span_tree,
    collapse_spans,
    diff_runs,
    format_diff,
    format_report,
    load_run,
    read_events,
)


def write_run(run_dir, span_walls, counters=None, status="completed"):
    """Synthesize a run directory with given per-name span wall times."""
    run_dir.mkdir(parents=True)
    events = [{"seq": 0, "t": 0.0, "kind": "run_start", "run_id": run_dir.name,
               "schema": 1, "pid": 1, "meta": {}}]
    seq = 1
    for i, (name, wall) in enumerate(span_walls):
        events.append({"seq": seq, "t": 0.0, "kind": "span_open",
                       "id": i, "parent": None, "name": name, "attrs": {}})
        seq += 1
        events.append({"seq": seq, "t": 0.0, "kind": "span_close",
                       "id": i, "name": name, "wall": wall, "cpu": wall, "attrs": {}})
        seq += 1
    snapshot = {"counters": counters or {}, "gauges": {}, "histograms": {}}
    events.append({"seq": seq, "t": 0.0, "kind": "metrics", "snapshot": snapshot})
    events.append({"seq": seq + 1, "t": 0.0, "kind": "run_end", "status": status,
                   "wall": sum(w for _, w in span_walls)})
    with open(run_dir / "events.jsonl", "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(event) + "\n")
    manifest = {"schema": 1, "run_id": run_dir.name, "status": status,
                "wall_seconds": sum(w for _, w in span_walls),
                "config_hash": "deadbeefdeadbeef", "metrics": snapshot,
                "seed": 0}
    (run_dir / "run.json").write_text(json.dumps(manifest))
    return run_dir


class TestReportViews:
    def test_collapse_groups_siblings_by_name(self, tmp_path):
        run = write_run(tmp_path / "r", [("epoch", 0.1), ("epoch", 0.3), ("other", 0.2)])
        record = load_run(run)
        groups = {g.name: g for g in collapse_spans(record.roots)}
        assert groups["epoch"].count == 2
        assert groups["epoch"].wall == pytest.approx(0.4)
        assert groups["other"].count == 1

    def test_format_report_renders_spans_and_counters(self, tmp_path):
        run = write_run(tmp_path / "r", [("train.fit", 1.5)], counters={"train.epochs": 5})
        text = format_report(load_run(run))
        assert "[completed]" in text
        assert "train.fit" in text
        assert "train.epochs" in text and "5" in text
        assert "config deadbeefdeadbeef" in text

    def test_open_span_reported_as_never_closed(self, tmp_path):
        run_dir = tmp_path / "open"
        run_dir.mkdir()
        events = [
            {"seq": 0, "t": 0.0, "kind": "run_start", "run_id": "open", "schema": 1,
             "pid": 1, "meta": {}},
            {"seq": 1, "t": 0.0, "kind": "span_open", "id": 0, "parent": None,
             "name": "train.fit", "attrs": {}},
        ]
        (run_dir / "events.jsonl").write_text(
            "".join(json.dumps(e) + "\n" for e in events))
        record = load_run(run_dir)
        assert record.status == "incomplete"
        assert not record.roots[0].closed
        assert "never closed" in format_report(record)

    def test_corrupt_middle_line_raises(self, tmp_path):
        run_dir = tmp_path / "corrupt"
        run_dir.mkdir()
        (run_dir / "events.jsonl").write_text('{"seq": 0}\nnot json\n{"seq": 2}\n')
        with pytest.raises(ValueError, match="corrupt event line"):
            read_events(run_dir)

    def test_span_tree_rebuilds_nesting(self):
        events = [
            {"kind": "span_open", "id": 0, "parent": None, "name": "a", "attrs": {}},
            {"kind": "span_open", "id": 1, "parent": 0, "name": "b", "attrs": {}},
            {"kind": "span_close", "id": 1, "name": "b", "wall": 0.1, "cpu": 0.1},
            {"kind": "span_close", "id": 0, "name": "a", "wall": 0.2, "cpu": 0.2},
        ]
        roots = build_span_tree(events)
        assert [r.name for r in roots] == ["a"]
        assert [c.name for c in roots[0].children] == ["b"]


class TestDiff:
    def test_regression_detection_honors_threshold(self, tmp_path):
        a = load_run(write_run(tmp_path / "a", [("fast", 0.1), ("slow", 0.1)]))
        b = load_run(write_run(tmp_path / "b", [("fast", 0.11), ("slow", 0.5)]))
        entries = {e.name: e for e in diff_runs(a, b, threshold=0.2)}
        assert not entries["fast"].regressed    # +10% is under the 20% bar
        assert entries["slow"].regressed        # 5x is not
        assert "REGRESSED" in format_diff(list(entries.values()))

    def test_counter_changes_flagged(self, tmp_path):
        a = load_run(write_run(tmp_path / "a", [], counters={"fallbacks": 0}))
        b = load_run(write_run(tmp_path / "b", [], counters={"fallbacks": 3}))
        entries = [e for e in diff_runs(a, b) if e.kind == "counter"]
        assert entries[0].regressed
        assert "CHANGED" in format_diff(entries)

    def test_names_missing_from_one_run_default_to_zero(self, tmp_path):
        a = load_run(write_run(tmp_path / "a", [("only_in_a", 0.2)]))
        b = load_run(write_run(tmp_path / "b", [("only_in_b", 0.2)]))
        entries = {e.name: (e.a, e.b) for e in diff_runs(a, b) if e.kind == "span"}
        assert entries["only_in_a"] == (0.2, 0.0)
        assert entries["only_in_b"] == (0.0, 0.2)


class TestCli:
    def test_report_exit_zero(self, tmp_path, capsys):
        run = write_run(tmp_path / "run", [("train.fit", 1.0)], counters={"n": 1})
        assert obs_main(["report", str(run)]) == 0
        out = capsys.readouterr().out
        assert "train.fit" in out and "counters:" in out

    def test_no_metrics_flag(self, tmp_path, capsys):
        run = write_run(tmp_path / "run", [("s", 1.0)], counters={"n": 1})
        assert obs_main(["report", str(run), "--no-metrics"]) == 0
        assert "counters:" not in capsys.readouterr().out

    def test_diff_exit_codes(self, tmp_path, capsys):
        a = write_run(tmp_path / "a", [("s", 0.1)])
        b = write_run(tmp_path / "b", [("s", 0.5)])
        assert obs_main(["report", str(a), "--diff", str(b)]) == 0
        assert "REGRESSED" in capsys.readouterr().out
        assert obs_main(["report", str(a), "--diff", str(b),
                         "--fail-on-regression"]) == 1
        # with a generous threshold the same pair passes
        assert obs_main(["report", str(a), "--diff", str(b),
                         "--threshold", "10", "--fail-on-regression"]) == 0

    def test_only_filters_gated_names(self, tmp_path, capsys):
        # campaign.reconstruct regresses (overlap dilates it); train.fit does
        # not — gating --only 'train.*' must ignore the dilated span
        a = write_run(tmp_path / "a", [("train.fit", 1.0), ("campaign.reconstruct", 0.1)],
                      counters={"train.epochs": 5, "campaign.timesteps": 3})
        b = write_run(tmp_path / "b", [("train.fit", 1.05), ("campaign.reconstruct", 0.5)],
                      counters={"train.epochs": 5, "campaign.timesteps": 3})
        assert obs_main(["report", str(a), "--diff", str(b),
                         "--fail-on-regression"]) == 1
        assert obs_main(["report", str(a), "--diff", str(b), "--only", "train.*",
                         "--fail-on-regression"]) == 0
        out = capsys.readouterr().out
        assert "campaign.reconstruct" not in out.rsplit("A: ", 1)[-1]
        # repeatable: two globs widen the selection back to a failure
        assert obs_main(["report", str(a), "--diff", str(b), "--only", "train.*",
                         "--only", "campaign.*", "--fail-on-regression"]) == 1

    def test_only_glob_matching_no_span_fails(self, tmp_path, capsys):
        # A gate whose spans were renamed away must not pass on an empty
        # diff; a counter of that name does not keep it alive.
        a = write_run(tmp_path / "a", [("train.fit", 1.0)], counters={"no.such.n": 1})
        b = write_run(tmp_path / "b", [("train.fit", 1.0)], counters={"no.such.n": 1})
        for globs in (["no.such.*"], ["train.*", "no.such.*"]):
            args = [arg for glob in globs for arg in ("--only", glob)]
            assert obs_main(["report", str(a), "--diff", str(b), *args,
                             "--fail-on-regression"]) == 2
            err = capsys.readouterr().err
            assert "no.such.*" in err and "train.*" not in err
        assert obs_main(["report", str(a), "--diff", str(b), "--only", "train.*",
                         "--fail-on-regression"]) == 0

    def test_missing_run_dir_exit_two(self, tmp_path, capsys):
        assert obs_main(["report", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_main_cli_dispatches_obs(self, tmp_path, capsys):
        from repro.cli import main as repro_main

        run = write_run(tmp_path / "run", [("s", 1.0)])
        assert repro_main(["obs", "report", str(run)]) == 0
        assert "s" in capsys.readouterr().out
