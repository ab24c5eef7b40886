"""Order statistics for the benchmark's reports and its compare mode."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Percentiles tried for the tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
#: A tail percentile is reported only with at least this many samples above it.
TAIL_MIN_BEYOND = 10


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """The q-th percentile (0 < q <= 100) by the nearest-rank rule."""
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(values: Sequence[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest percentile on
    TAIL_LADDER that leaves at least TAIL_MIN_BEYOND samples above its rank.
    With too few samples for any of them, the median: (50, median, n//2)."""
    ordered = sorted(values)
    n = len(ordered)
    for q in TAIL_LADDER:
        beyond = n - math.ceil(q / 100 * n)
        if beyond >= TAIL_MIN_BEYOND:
            return q, nearest_rank(ordered, q), beyond
    return 50.0, statistics.median(ordered), n // 2


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as
    `statistics.quantiles(values, n=4)` gives them; one value is its own."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf
