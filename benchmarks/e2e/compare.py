#!/usr/bin/env python3
"""Compare two benchmark records metric by metric, workload by workload.

    python benchmarks/e2e/compare.py A.json B.json

``A`` is the parent (or first) record and ``B`` the change, each written
by ``run.py --repeats N --out FILE`` with the same ``--seed``.  For every
end-to-end metric of ``BENCHMARK.json`` and every workload the table shows
each side's median and quartiles and one verdict:

* ``unresolved`` - A's own interquartile spread is wider than the metric's
  bound, so a difference cannot be told from noise (unless every B run
  beats every A run);
* ``regressed`` - B's median is worse than A's by more than the bound, or
  B failed more runs;
* ``improved`` - B wins at least 9 of every 10 pairs (run ``i`` of A
  against run ``i`` of B, ties counting for neither) and the medians
  differ by more than A's interquartile distance;
* ``unchanged`` - none of the above.

The bound is ``BENCHMARK.json``'s share of A's median, except where
:data:`OVERRIDES` gives another.  Exits with status 1 when any pairing
regressed, and with status 2 when the records' seeds differ.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from stats import median, quartiles

ROOT = Path(__file__).resolve().parents[2]

#: Share of pairs the change must win to count as improved.
WIN_SHARE = 0.9

#: ``(share of A's median or None for BENCHMARK.json's, amount in the
#: metric's unit)``: a metric may worsen by the larger of the two.
#: BENCHMARK.json's shares must also cover how a metric moves from seed to
#: seed, since ten seeds are compared there; here both sides ran one seed.
#: SNR is then deterministic, so quality is held to 0.01 dB rather than
#: the 8 % that seed-to-seed changes of the sample set need.  A set-up of
#: 40 ms moves by more than 25 % between runs, so set-up time may also
#: worsen by 0.5 s.
OVERRIDES = {
    "setup_s": (None, 0.5),
    "snr_mean_db": (0.0, 0.01),
    "snr_min_db": (0.0, 0.01),
}


def allowed(name: str, bound: float, a_median: float) -> float:
    """How much metric ``name`` may worsen from ``a_median``, in its unit."""
    share, amount = OVERRIDES.get(name, (None, 0.0))
    return max((bound if share is None else share) * abs(a_median), amount)


def verdict(a: list, b: list, better: str, name: str, bound: float) -> str:
    """Verdict for one metric given A's and B's per-run values (None = failed run)."""
    if sum(v is None for v in b) > sum(v is None for v in a):
        return "regressed"
    pairs = [(x, y) for x, y in zip(a, b) if x is not None and y is not None]
    a = [v for v in a if v is not None]
    b = [v for v in b if v is not None]
    if not a or not b:
        return "unresolved"
    sign = 1.0 if better == "higher" else -1.0
    q1, ma, q3 = quartiles(a)
    mb = median(b)
    limit = allowed(name, bound, ma)
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    improved = bool(pairs) and wins >= WIN_SHARE * len(pairs) and abs(mb - ma) > q3 - q1
    every_b_better = all(sign * (y - x) > 0 for x in a for y in b)
    if q3 - q1 > limit and not every_b_better:
        return "unresolved"
    if sign * (ma - mb) > limit:
        return "regressed"
    return "improved" if improved else "unchanged"


def compare(a: dict, b: dict, spec: dict) -> list[dict]:
    rows = []
    for workload in [w for w in a["runs"] if w in b["runs"]]:
        ra, rb = a["runs"][workload], b["runs"][workload]
        for m in spec["end_to_end"]:
            va = [r["metrics"].get(m["name"]) for r in ra]
            vb = [r["metrics"].get(m["name"]) for r in rb]
            a_median = median(va)
            rows.append({
                "workload": workload, "metric": m["name"], "unit": m["unit"],
                "bound": None if a_median is None else allowed(m["name"], m["bound"], a_median),
                "a": quartiles(va), "b": quartiles(vb),
                "verdict": verdict(va, vb, m["better"], m["name"], m["bound"]),
            })
        fa = [r["failed_frac"] for r in ra]
        fb = [r["failed_frac"] for r in rb]
        rows.append({
            "workload": workload, "metric": "failed_frac", "unit": "ratio", "bound": None,
            "a": quartiles(fa), "b": quartiles(fb),
            "verdict": "regressed" if max(fb) > max(fa) else "unchanged",
        })
    return rows


def _q(q) -> str:
    if q is None:
        return "failed"
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="parent record (run.py --out)")
    parser.add_argument("b", help="change record (run.py --out)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a = json.loads(Path(args.a).read_text())
    b = json.loads(Path(args.b).read_text())
    if a["seed"] != b["seed"]:
        print(f"error: the records ran different seeds ({a['seed']} and {b['seed']})",
              file=sys.stderr)
        return 2
    rows = compare(a, b, spec)
    print(f"A: {args.a} ({a['repeats']} runs)   B: {args.b} ({b['repeats']} runs)")
    print(f"{'workload':<18}{'metric':<14}{'A median [q1, q3]':>32}{'B median [q1, q3]':>32}"
          f"{'allowed worsening':>22}  verdict")
    for row in rows:
        bound = "0" if row["bound"] is None else f"{row['bound']:.4g} {row['unit']}"
        print(f"{row['workload']:<18}{row['metric']:<14}{_q(row['a']):>32}{_q(row['b']):>32}"
              f"{bound:>22}  {row['verdict']}")
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
