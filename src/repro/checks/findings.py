"""Findings: what a rule reports, and how findings are rendered.

A :class:`Finding` pins a rule violation to a file and line.  Findings are
value objects — hashable, ordered by location — so the engine can sort
and deduplicate them.

Each finding carries a **severity tier** (``error`` > ``warning`` >
``note``, stamped from the reporting rule's class) and derives its **rule
family** from the id's alphabetic prefix (``THR003`` -> ``THR``).  Both
feed the JSON report and the SARIF renderer (:mod:`repro.checks.sarif`);
the exit-code contract stays severity-blind (any unsuppressed finding
fails the run).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = ["Finding", "SEVERITIES", "format_text", "format_json", "rule_family"]

#: Recognized severity tiers, most severe first.
SEVERITIES = ("error", "warning", "note")


def rule_family(rule_id: str) -> str:
    """The alphabetic prefix of a rule id: ``THR003`` -> ``THR``."""
    head = rule_id.rstrip("0123456789")
    return head or rule_id


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str          # posix path as scanned (stable across runs from repo root)
    line: int          # 1-based line of the offending node
    col: int           # 0-based column
    rule: str          # rule identifier, e.g. "RNG001"
    message: str       # human-readable explanation
    symbol: str = field(default="", compare=False)  # enclosing def/class, if known
    severity: str = field(default="warning", compare=False)  # error|warning|note

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )

    @property
    def family(self) -> str:
        """Rule family: the id's alphabetic prefix (``ALS002`` -> ``ALS``)."""
        return rule_family(self.rule)

    def fingerprint(self) -> tuple[str, str, str]:
        """Identity behind SARIF's ``partialFingerprints``.

        Deliberately excludes line/column so code scanning matches a
        finding across unrelated edits that shift code up or down a file.
        """
        return (self.path, self.rule, self.message)

    def as_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "family": self.family,
            "severity": self.severity,
            "message": self.message,
            "symbol": self.symbol,
        }


def format_text(findings: list[Finding]) -> str:
    """One `path:line:col: RULE message` row per finding, plus a summary."""
    rows = [f"{f.path}:{f.line}:{f.col}: {f.rule} {f.message}" for f in findings]
    n = len(findings)
    summary = f"{n} finding{'s' if n != 1 else ''}"
    by_severity = {
        sev: sum(1 for f in findings if f.severity == sev) for sev in SEVERITIES
    }
    detail = ", ".join(
        f"{count} {sev}{'s' if count != 1 else ''}"
        for sev, count in by_severity.items()
        if count
    )
    rows.append(f"{summary} ({detail})" if detail else summary)
    return "\n".join(rows)


def format_json(findings: list[Finding]) -> str:
    """Machine-readable report (consumed by CI)."""
    return json.dumps(
        {
            "version": 3,
            "count": len(findings),
            "findings": [f.as_dict() for f in findings],
        },
        indent=2,
        sort_keys=True,
    )
