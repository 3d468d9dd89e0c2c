"""Percentiles, spreads and result-line helpers."""

import math
import statistics


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least ``p``
    percent of the samples at or below it (rank ``ceil(p/100 * n)``)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def latency_summary(values):
    """p50/p90/p99/max and the sample count of a latency list (ms)."""
    return {
        "n": len(values),
        "p50": percentile(values, 50),
        "p90": percentile(values, 90),
        "p99": percentile(values, 99),
        "max": max(values),
    }


def spread(values):
    """Inter-quartile range as a share of the median, with the quartiles
    ``statistics.quantiles(values, n=4)`` gives."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def metric(value, unit):
    return {"value": value, "unit": unit}
