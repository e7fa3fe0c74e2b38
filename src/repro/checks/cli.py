"""``python -m repro.checks`` — the static-analysis front-end.

Exit-code contract (stable, severity-blind, relied on by CI):

* ``0`` — clean: no unsuppressed findings (also returned by
  ``--list-rules``);
* ``1`` — findings: at least one actionable finding, of any severity;
* ``2`` — usage or internal error: bad flags, unknown rule ids, no
  files to check, or the checker itself crashed.

``main()`` is a pure function of ``argv`` — argparse's ``SystemExit``
is caught and normalized to the same contract, so tests and embedders
never have to guard against a raising CLI.
"""

from __future__ import annotations

import argparse
import sys

from repro.checks.config import CheckConfig
from repro.checks.engine import run_checks
from repro.checks.findings import format_json, format_text
from repro.checks.rules import ALL_RULES
from repro.checks.sarif import format_sarif

__all__ = ["main"]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.checks",
        description="AST-based checks for this repo's numerical-correctness invariants.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to check (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="report format (default: text; sarif for code-scanning upload)",
    )
    parser.add_argument(
        "--select", default=None, metavar="RULES", help="comma-separated rule ids to run"
    )
    parser.add_argument(
        "--ignore", default=None, metavar="RULES", help="comma-separated rule ids to skip"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list the rule battery and exit"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; normalize to
        # the documented contract instead of letting the exception escape.
        return int(exc.code or 0)

    if args.list_rules:
        for cls in ALL_RULES:
            print(f"{cls.id}  {cls.severity:7s}  {cls.name:28s} {cls.description}")
        return EXIT_CLEAN

    config = CheckConfig.from_cli(select=args.select, ignore=args.ignore)
    known = {cls.id for cls in ALL_RULES}
    unknown = (config.select | config.ignore) - known
    if unknown:
        print(
            f"error: unknown rule id(s) {sorted(unknown)}; "
            f"known: {sorted(known)}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    try:
        result = run_checks(args.paths, config=config)
    except Exception as exc:  # internal error, not a finding
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if result.files_checked == 0:
        print(f"error: no python files under {args.paths}", file=sys.stderr)
        return EXIT_USAGE

    if args.format == "json":
        print(format_json(result.findings))
    elif args.format == "sarif":
        print(format_sarif(result.findings, ALL_RULES))
    else:
        print(format_text(result.findings))
    return EXIT_FINDINGS if result.findings else EXIT_CLEAN


if __name__ == "__main__":
    sys.exit(main())
