"""SARIF 2.1.0 rendering for checker findings.

SARIF (Static Analysis Results Interchange Format) is the schema GitHub
code scanning ingests, so ``repro check --format sarif`` lets CI upload
findings straight into the PR's security tab.  The renderer emits one
``run`` with:

* a ``tool.driver`` listing every rule in the battery (id, short
  description, default severity) so viewers can show rule help even for
  rules with no findings in this run;
* one ``result`` per finding, with the SARIF ``level`` mapped from the
  repo severity tier (``error`` -> ``error``, ``warning`` -> ``warning``,
  ``note`` -> ``note``) and a ``partialFingerprints`` entry hashed from
  :meth:`Finding.fingerprint` so code scanning deduplicates across pushes.
  Repeats of one (path, rule, message) triple are numbered in result
  order: the first keeps the triple's hash, the k-th repeat hashes the
  triple plus k, so no two results share a fingerprint.

Only the fields code scanning consumes are emitted; the document
validates against the 2.1.0 schema's required-property set.
"""

from __future__ import annotations

import hashlib
import json

from repro.checks.findings import Finding
from repro.checks.rules.base import Rule

__all__ = ["SARIF_VERSION", "sarif_report", "format_sarif"]

SARIF_VERSION = "2.1.0"
_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: repro severity tier -> SARIF result level (identity today, but kept as
#: an explicit table so the two vocabularies can drift independently).
_LEVELS = {"error": "error", "warning": "warning", "note": "note"}


def _rule_descriptor(cls: type[Rule]) -> dict:
    return {
        "id": cls.id,
        "name": cls.name,
        "shortDescription": {"text": cls.description},
        "defaultConfiguration": {"level": _LEVELS[cls.severity]},
        "helpUri": f"https://example.invalid/docs/CHECKS.md#{cls.id.lower()}",
    }


def _result(finding: Finding, repeat: int) -> dict:
    parts = finding.fingerprint()
    if repeat:
        parts = (*parts, str(repeat))
    fingerprint = hashlib.sha256("\x1f".join(parts).encode()).hexdigest()
    return {
        "ruleId": finding.rule,
        "level": _LEVELS[finding.severity],
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path,
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {
                        "startLine": finding.line,
                        "startColumn": finding.col + 1,  # SARIF is 1-based
                    },
                },
                "logicalLocations": (
                    [{"name": finding.symbol, "kind": "function"}]
                    if finding.symbol
                    else []
                ),
            }
        ],
        "partialFingerprints": {"reproChecksFingerprint/v1": fingerprint},
    }


def sarif_report(
    findings: list[Finding],
    rules: tuple[type[Rule], ...] = (),
) -> dict:
    """The SARIF log as a plain dict (one run, one tool)."""
    repeats: dict[tuple[str, str, str], int] = {}
    results = []
    for finding in findings:
        key = finding.fingerprint()
        repeat = repeats.get(key, 0)
        results.append(_result(finding, repeat))
        repeats[key] = repeat + 1
    known = {cls.id for cls in rules}
    descriptors = [_rule_descriptor(cls) for cls in rules]
    # Findings from pseudo-rules (PARSE001, NOQA001) are not in the
    # battery; synthesize minimal descriptors so every result's ruleId
    # resolves within the document.
    for finding in findings:
        if finding.rule not in known:
            known.add(finding.rule)
            descriptors.append(
                {
                    "id": finding.rule,
                    "name": finding.rule.lower(),
                    "shortDescription": {"text": f"{finding.family} diagnostics"},
                    "defaultConfiguration": {"level": _LEVELS[finding.severity]},
                }
            )
    return {
        "$schema": _SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-checks",
                        "informationUri": "https://example.invalid/docs/CHECKS.md",
                        "rules": sorted(descriptors, key=lambda d: d["id"]),
                    }
                },
                "columnKind": "utf16CodeUnits",
                "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
                "results": results,
            }
        ],
    }


def format_sarif(
    findings: list[Finding],
    rules: tuple[type[Rule], ...] = (),
) -> str:
    return json.dumps(sarif_report(findings, rules), indent=2, sort_keys=True)