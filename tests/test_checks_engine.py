"""Engine plumbing: noqa parsing, discovery, CLI contract."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.checks import (
    CheckConfig,
    Finding,
    format_json,
    format_text,
    module_name_for,
    parse_noqa,
    run_checks,
)
from repro.checks.cli import main as checks_main
from repro.cli import main as repro_main

SRC = str(Path(__file__).resolve().parent.parent / "src")

TRIGGER = "import numpy as np\n\nrng = np.random.default_rng()\n"


# ------------------------------------------------------------------- noqa
def test_noqa_bare_suppresses_everything():
    d = parse_noqa("x = 1  # repro: noqa\n")
    assert d.is_suppressed(1, "RNG001") and d.is_suppressed(1, "DIV001")


def test_noqa_listed_rules_only():
    d = parse_noqa("x = 1  # repro: noqa[RNG001, DIV001]\n")
    assert d.is_suppressed(1, "RNG001")
    assert d.is_suppressed(1, "DIV001")
    assert not d.is_suppressed(1, "DT001")
    assert not d.is_suppressed(2, "RNG001")


def test_noqa_inside_string_is_not_a_directive():
    d = parse_noqa('x = "# repro: noqa[RNG001]"\n')
    assert not d.is_suppressed(1, "RNG001")


def test_noqa_case_insensitive_rule_ids():
    d = parse_noqa("x = 1  # repro: noqa[rng001]\n")
    assert d.is_suppressed(1, "RNG001")


# ----------------------------------------------------------------- engine
def test_module_name_derivation(tmp_path):
    (tmp_path / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "pkg" / "__init__.py").write_text("")
    (tmp_path / "pkg" / "sub" / "__init__.py").write_text("")
    (tmp_path / "pkg" / "sub" / "mod.py").write_text("")
    assert module_name_for(tmp_path / "pkg" / "sub" / "mod.py") == "pkg.sub.mod"
    assert module_name_for(tmp_path / "pkg" / "sub" / "__init__.py") == "pkg.sub"


def test_syntax_error_becomes_parse_finding(tmp_path):
    (tmp_path / "bad.py").write_text("def broken(:\n")
    result = run_checks([tmp_path])
    assert [f.rule for f in result.findings] == ["PARSE001"]


def test_select_and_ignore(tmp_path):
    (tmp_path / "mod.py").write_text(TRIGGER)
    assert run_checks([tmp_path], CheckConfig(select=frozenset({"DIV001"}))).ok
    assert run_checks([tmp_path], CheckConfig(ignore=frozenset({"RNG002"}))).ok
    assert not run_checks([tmp_path], CheckConfig(select=frozenset({"RNG002"}))).ok


def test_single_file_path(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(TRIGGER)
    result = run_checks([target])
    assert result.files_checked == 1 and len(result.findings) == 1


# -------------------------------------------------------------------- cli
def test_cli_exit_codes(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text(TRIGGER)
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert checks_main([str(clean)]) == 0
    assert checks_main([str(dirty)]) == 1
    assert checks_main([str(tmp_path / "missing_dir")]) == 2
    capsys.readouterr()


def test_cli_json_format(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text(TRIGGER)
    assert checks_main([str(dirty), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 1
    assert payload["findings"][0]["rule"] == "RNG002"


def test_cli_rejects_unknown_rule_ids(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert checks_main([str(clean), "--select", "TOTALLY-FAKE"]) == 2
    assert "unknown rule id" in capsys.readouterr().err
    assert checks_main([str(clean), "--ignore", "NOPE123"]) == 2
    capsys.readouterr()


def test_cli_list_rules(capsys):
    assert checks_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("RNG001", "DIV001", "IMP001", "DEF001",
                    "THR001", "THR004", "ALS001", "ALS002"):
        assert rule_id in out
    assert "error" in out and "warning" in out  # severity column


def test_cli_normalizes_argparse_systemexit(capsys):
    # main() is a pure function of argv: usage errors return 2, --help
    # returns 0, neither raises SystemExit.
    assert checks_main(["--totally-bogus-flag"]) == 2
    assert checks_main(["--help"]) == 0
    assert checks_main(["--format", "nonsense"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "flags",
    [["--baseline", "F"], ["--write-baseline"], ["--migrate-baseline"], ["--fix"]],
    ids=lambda flags: flags[0],
)
def test_cli_rejects_removed_flags(tmp_path, capsys, flags):
    # A finding is fixed by hand or suppressed with a justified noqa;
    # no flag grandfathers or rewrites it.
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert checks_main([str(clean), *flags]) == 2
    assert f"unrecognized arguments: {flags[0]}" in capsys.readouterr().err


def test_cli_exit_code_is_severity_blind(tmp_path, capsys):
    # A note-severity finding (NOQA001) fails the run exactly like an error.
    target = tmp_path / "m.py"
    target.write_text("x = 1  # repro: noqa[TYPO99]\n")
    assert checks_main([str(tmp_path)]) == 1
    capsys.readouterr()


def test_text_output_includes_severity_summary(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text(TRIGGER)
    assert checks_main([str(dirty)]) == 1
    out = capsys.readouterr().out
    assert "1 finding (1 warning)" in out


def test_repro_cli_check_subcommand(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert repro_main(["check", str(clean)]) == 0
    capsys.readouterr()


def test_python_dash_m_entrypoint(tmp_path):
    dirty = tmp_path / "dirty.py"
    dirty.write_text(TRIGGER)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.checks", str(dirty)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 1
    assert "RNG002" in proc.stdout


# --------------------------------------------------------------- formats
def test_format_text_and_json_shapes():
    f = Finding("a.py", 3, 1, "RNG001", "msg")
    text = format_text([f])
    assert "a.py:3:1: RNG001 msg" in text and "1 finding" in text
    payload = json.loads(format_json([f]))
    assert payload["version"] == 3 and payload["count"] == 1
