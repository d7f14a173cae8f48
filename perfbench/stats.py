"""Arithmetic the benchmark reports with: self time, percentiles, ratios.

Kept free of I/O and of the program under test so that the tests in
``perfbench/tests`` can check it on synthetic spans.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Optional, Sequence

# Percentiles tried for the tail figure, highest last.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)
# A percentile is reported only when at least this many samples lie beyond it.
TAIL_MIN_BEYOND = 10


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``.

    Intervals are clipped to [lo, hi]; where they overlap, the overlap
    counts once.
    """
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(start: float, end: float, children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part of it that child spans cover."""
    return (end - start) - covered(children, start, end)


def nearest_rank(sorted_values: Sequence[float], p: float) -> float:
    """The p-th percentile by the nearest-rank rule (1-indexed rank ceil(p*n/100))."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(p * len(sorted_values) / 100))
    return sorted_values[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie beyond the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(p * n / 100))


def tail_percentile(values: Iterable[float]) -> tuple[float, float]:
    """(p, value) for the highest ladder percentile with at least
    TAIL_MIN_BEYOND samples beyond it; the median when none qualifies."""
    vals = sorted(values)
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if samples_beyond(len(vals), p) >= TAIL_MIN_BEYOND:
            best = p
    return best, nearest_rank(vals, best)


def ratio(num: float, base: float) -> Optional[float]:
    """num / base, or None when the base is zero (the ratio is undefined)."""
    if base == 0:
        return None
    return num / base


def spread(values: Sequence[float]) -> Optional[float]:
    """Interquartile distance as a share of the median, as
    ``statistics.quantiles(values, n=4)`` gives the quartiles."""
    if len(values) < 2:
        return None
    q1, med, q3 = statistics.quantiles(values, n=4)
    return None if med == 0 else (q3 - q1) / med
