"""``repro obs`` — render and diff run-telemetry directories.

::

    repro obs report RUN_DIR                 # span tree + metrics of one run
    repro obs report RUN_DIR --diff OTHER    # A-vs-B regression comparison
    repro obs report RUN_DIR --no-metrics    # spans only
    repro obs report RUN_DIR --diff OTHER --only 'train.*'   # gate a subset

``--only GLOB`` (repeatable) restricts a diff to matching span/counter
names.  Use it when the two runs only overlap on part of their spans —
e.g. comparing a pipelined campaign against its serial twin, where the
overlapped stage spans legitimately dilate in wall time and only the
strictly-sequential ``train.*`` spans are required not to regress.

Every ``--only`` glob must match a span of either run: a gate whose spans
were renamed away would otherwise pass on an empty diff.

Exit codes: ``0`` report rendered (even when the diff finds regressions —
pass ``--fail-on-regression`` to turn those into exit ``1``), ``2`` usage,
unreadable run directory, or an ``--only`` glob that matches no span.
"""

from __future__ import annotations

import argparse
import fnmatch
import sys

from repro.obs.report import diff_runs, format_diff, format_report, load_run

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro obs", description="inspect run-telemetry directories"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="render a run's span tree and metrics")
    p.add_argument("run_dir", help="directory holding events.jsonl (+ run.json)")
    p.add_argument("--diff", default=None, metavar="OTHER",
                   help="second run directory to compare against (A=run_dir, B=OTHER)")
    p.add_argument("--threshold", type=float, default=0.2,
                   help="relative span-time regression threshold for --diff (default 0.2)")
    p.add_argument("--no-metrics", action="store_true",
                   help="omit the counter/gauge/histogram tables")
    p.add_argument("--only", action="append", default=None, metavar="GLOB",
                   help="restrict --diff to span/counter names matching any "
                        "glob (repeatable)")
    p.add_argument("--fail-on-regression", action="store_true",
                   help="exit 1 when --diff finds a span regression")

    args = parser.parse_args(argv)
    try:
        record = load_run(args.run_dir)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.diff is None:
        print(format_report(record, show_metrics=not args.no_metrics))
        return 0

    try:
        other = load_run(args.diff)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    entries = diff_runs(record, other, threshold=args.threshold)
    if args.only:
        spans = [e.name for e in entries if e.kind == "span"]
        dead = [
            p for p in args.only if not any(fnmatch.fnmatchcase(n, p) for n in spans)
        ]
        if dead:
            print(f"error: --only {', '.join(dead)} matches no span in either run",
                  file=sys.stderr)
            return 2
        entries = [
            e for e in entries
            if any(fnmatch.fnmatchcase(e.name, pattern) for pattern in args.only)
        ]
    print(f"A: {record.run_dir}  [{record.status}]")
    print(f"B: {other.run_dir}  [{other.status}]")
    print()
    print(format_diff(entries, threshold=args.threshold))
    if args.fail_on_regression and any(
        e.regressed and e.kind == "span" for e in entries
    ):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
