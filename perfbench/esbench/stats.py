"""Order statistics used by every report."""

from __future__ import annotations

import statistics

# A tail figure needs this many samples strictly beyond it.
TAIL_BEYOND = 10


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile)``. With fewer than ``TAIL_BEYOND + 1``
    samples no such percentile exists and the maximum is returned with
    percentile 100, so the caller can see that the rule did not apply.
    """
    if not values:
        return (0.0, 0.0)
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return (ordered[-1], 100.0)
    index = n - 1 - TAIL_BEYOND
    return (ordered[index], 100.0 * (index + 1) / n)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) from ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return (v, v, v)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")
