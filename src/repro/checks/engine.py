"""The checker engine: discover, parse, run rules, filter, report.

Pipeline per run:

1. discover ``.py`` files under the given paths;
2. parse each into a :class:`ModuleContext` (deriving the dotted module
   name by walking ``__init__.py`` packages upward), reporting syntax
   errors as ``PARSE001`` findings;
3. run every enabled rule's per-module pass, then the cross-module
   ``finalize`` pass;
4. drop findings suppressed by ``# repro: noqa[...]`` directives,
   reporting any *unknown* rule code named in a directive as a
   ``NOQA001`` note (a typo'd code suppresses nothing, silently).

Every finding left in :attr:`CheckResult.findings` is actionable — the
exit-code contract is simply ``bool(findings)``, severity-blind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.checks.config import CheckConfig
from repro.checks.findings import Finding
from repro.checks.noqa import NoqaDirectives, parse_noqa
from repro.checks.rules import ALL_RULES
from repro.checks.rules.base import ModuleContext, ProjectContext

__all__ = ["CheckResult", "run_checks", "discover_files", "module_name_for"]

PARSE_RULE_ID = "PARSE001"
NOQA_RULE_ID = "NOQA001"


@dataclass
class CheckResult:
    """Outcome of one checker run."""

    findings: list[Finding] = field(default_factory=list)      # actionable
    suppressed: int = 0                                        # noqa'd count
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings


def discover_files(paths: list[str | Path]) -> list[Path]:
    """All ``.py`` files under the given files/directories, sorted."""
    out: set[Path] = set()
    for p in paths:
        path = Path(p)
        if path.is_dir():
            out.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            out.add(path)
    return sorted(out)


def module_name_for(path: Path) -> str | None:
    """Dotted module name, derived from the ``__init__.py`` package chain."""
    path = path.resolve()
    parts = [path.stem] if path.name != "__init__.py" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) or None


def run_checks(
    paths: list[str | Path],
    config: CheckConfig | None = None,
) -> CheckResult:
    """Run the configured rule battery over ``paths``."""
    config = config or CheckConfig()
    result = CheckResult()
    active = [cls() for cls in ALL_RULES if config.is_enabled(cls.id)]

    project = ProjectContext()
    raw: list[Finding] = []
    noqa_by_path: dict[str, NoqaDirectives] = {}

    for file in discover_files(paths):
        display = file.as_posix()
        try:
            source = file.read_text()
        except OSError as exc:
            raw.append(
                Finding(display, 1, 0, PARSE_RULE_ID, f"cannot read file: {exc}")
            )
            continue
        result.files_checked += 1
        noqa_by_path[display] = parse_noqa(source)
        try:
            ctx = ModuleContext.from_source(
                source,
                path=file.resolve(),
                display_path=display,
                module=module_name_for(file),
            )
        except SyntaxError as exc:
            raw.append(
                Finding(
                    display,
                    exc.lineno or 1,
                    (exc.offset or 1) - 1,
                    PARSE_RULE_ID,
                    f"syntax error: {exc.msg}",
                )
            )
            continue
        project.modules.append(ctx)
        for rule in active:
            raw.extend(rule.check_module(ctx))

    for rule in active:
        raw.extend(rule.finalize(project))

    known_codes = {cls.id for cls in ALL_RULES} | {PARSE_RULE_ID, NOQA_RULE_ID}
    for display, directives in sorted(noqa_by_path.items()):
        for line, code in directives.listed_codes():
            if code not in known_codes:
                raw.append(
                    Finding(
                        display,
                        line,
                        0,
                        NOQA_RULE_ID,
                        f"noqa directive names unknown rule code '{code}' "
                        "(it suppresses nothing); fix the code or drop it",
                        severity="note",
                    )
                )

    for finding in sorted(set(raw)):
        directives = noqa_by_path.get(finding.path)
        if directives is not None and directives.is_suppressed(
            finding.line, finding.rule
        ):
            result.suppressed += 1
            continue
        result.findings.append(finding)
    return result
