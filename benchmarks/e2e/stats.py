"""Small statistics helpers shared by the runner, the workloads and compare.py."""

from __future__ import annotations

import statistics

import numpy as np

__all__ = ["TAIL_PERCENTILES", "tail_percentile", "median", "quartiles"]

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(values, beyond: int = 10) -> tuple[float | None, float | None]:
    """``(pct, value)`` for the highest percentile with >= ``beyond`` samples above it.

    A percentile is only as good as the samples past it: p99 of 200
    latencies rests on two numbers.  Returns ``(None, None)`` when even the
    median has fewer than ``beyond`` samples beyond it.
    """
    data = np.asarray(list(values), dtype=np.float64)
    n = data.size
    for pct in TAIL_PERCENTILES:
        if round(n * (100.0 - pct) / 100.0, 9) >= beyond:
            return pct, float(np.percentile(data, pct))
    return None, None


def median(values) -> float | None:
    data = [v for v in values if v is not None]
    return float(statistics.median(data)) if data else None


def quartiles(values) -> tuple[float, float, float] | None:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    data = [float(v) for v in values if v is not None]
    if not data:
        return None
    if len(data) == 1:
        return data[0], data[0], data[0]
    q1, q2, q3 = statistics.quantiles(data, n=4)
    return q1, q2, q3

