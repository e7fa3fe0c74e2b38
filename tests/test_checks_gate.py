"""The gate: ``src/repro`` must be clean.

This is the test-suite mirror of the CI ``static-checks`` job — a rule
violation anywhere in the library fails the build here too, so the
invariants hold even for contributors who never run the workflow.
"""

from __future__ import annotations

from pathlib import Path

from repro.checks import run_checks

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_REPRO = REPO_ROOT / "src" / "repro"


def test_library_tree_is_clean():
    assert SRC_REPRO.is_dir(), f"unexpected layout: {SRC_REPRO} missing"
    result = run_checks([SRC_REPRO])
    assert result.files_checked > 50, "suspiciously few files scanned"
    formatted = "\n".join(
        f"{f.path}:{f.line}: {f.rule} {f.message}" for f in result.findings
    )
    assert result.ok, f"repro.checks findings in src/repro:\n{formatted}"
