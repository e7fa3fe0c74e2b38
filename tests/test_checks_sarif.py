"""SARIF 2.1.0 output: structure, levels, fingerprints, CLI integration."""

from __future__ import annotations

import hashlib
import json

from repro.checks import ALL_RULES, Finding, format_sarif, run_checks, sarif_report
from repro.checks.cli import main as checks_main

FINDINGS = [
    Finding("src/a.py", 3, 4, "THR001", "unlocked write", symbol="worker",
            severity="error"),
    Finding("src/b.py", 9, 0, "ALS002", "arena escape", severity="warning"),
    Finding("src/c.py", 1, 0, "NOQA001", "unknown code", severity="note"),
]


def test_report_toplevel_shape():
    log = sarif_report(FINDINGS, ALL_RULES)
    assert log["version"] == "2.1.0"
    assert "sarif-schema-2.1.0" in log["$schema"]
    assert len(log["runs"]) == 1
    run = log["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-checks"
    assert len(run["results"]) == len(FINDINGS)


def test_every_battery_rule_is_described():
    run = sarif_report([], ALL_RULES)["runs"][0]
    described = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert described == {cls.id for cls in ALL_RULES}
    for descriptor in run["tool"]["driver"]["rules"]:
        assert descriptor["shortDescription"]["text"]
        assert descriptor["defaultConfiguration"]["level"] in (
            "error", "warning", "note",
        )


def test_severity_maps_to_sarif_level():
    results = sarif_report(FINDINGS, ALL_RULES)["runs"][0]["results"]
    by_rule = {r["ruleId"]: r for r in results}
    assert by_rule["THR001"]["level"] == "error"
    assert by_rule["ALS002"]["level"] == "warning"
    assert by_rule["NOQA001"]["level"] == "note"


def test_locations_are_one_based():
    result = sarif_report(FINDINGS, ALL_RULES)["runs"][0]["results"][0]
    region = result["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == 3
    assert region["startColumn"] == 5  # finding col 4 is 0-based


def test_pseudo_rules_get_synthesized_descriptors():
    # NOQA001 is not in the battery, but its result's ruleId must resolve.
    run = sarif_report(FINDINGS, ALL_RULES)["runs"][0]
    described = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert "NOQA001" in described


def test_fingerprint_is_stable_across_line_drift():
    a = Finding("src/a.py", 3, 4, "THR001", "unlocked write", severity="error")
    b = Finding("src/a.py", 300, 0, "THR001", "unlocked write", severity="error")
    fp = lambda f: sarif_report([f])["runs"][0]["results"][0]["partialFingerprints"]
    assert fp(a) == fp(b)


def test_cli_sarif_format(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import numpy as np\n\nrng = np.random.default_rng()\n")
    assert checks_main([str(dirty), "--format", "sarif"]) == 1
    log = json.loads(capsys.readouterr().out)
    assert log["version"] == "2.1.0"
    results = log["runs"][0]["results"]
    assert [r["ruleId"] for r in results] == ["RNG002"]


def test_cli_sarif_clean_run_has_empty_results(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert checks_main([str(clean), "--format", "sarif"]) == 0
    log = json.loads(capsys.readouterr().out)
    assert log["runs"][0]["results"] == []


def test_format_sarif_is_valid_json():
    parsed = json.loads(format_sarif(FINDINGS, ALL_RULES))
    assert parsed == sarif_report(FINDINGS, ALL_RULES)


def test_repeated_findings_get_distinct_fingerprints(tmp_path):
    nn = tmp_path / "nn"
    nn.mkdir()
    (nn / "d.py").write_text(
        "import numpy as np\n\n\ndef pair(x, y):\n    return np.asarray(x), np.asarray(y)\n"
    )
    findings = run_checks([str(nn / "d.py")]).findings
    results = sarif_report(findings, ALL_RULES)["runs"][0]["results"]
    fps = [r["partialFingerprints"]["reproChecksFingerprint/v1"] for r in results]
    assert [r["ruleId"] for r in results] == ["DT001", "DT001"]
    assert len(set(fps)) == 2
    # The first of the repeats keeps the hash a lone finding gets.
    assert fps[0] == sarif_report(findings[:1])["runs"][0]["results"][0][
        "partialFingerprints"
    ]["reproChecksFingerprint/v1"]


def test_lone_finding_fingerprint_is_unchanged():
    # sha256 of "src/a.py\x1fTHR001\x1funlocked write", as before repeats were numbered.
    lone = Finding("src/a.py", 3, 4, "THR001", "unlocked write", severity="error")
    fp = sarif_report([lone])["runs"][0]["results"][0]["partialFingerprints"]
    assert fp == {
        "reproChecksFingerprint/v1": hashlib.sha256(
            "src/a.py\x1fTHR001\x1funlocked write".encode()
        ).hexdigest()
    }
