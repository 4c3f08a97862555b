"""Percentiles and span arithmetic shared by the harness and its self-tests.

Percentiles use the nearest-rank rule, so a lost frame entered as +inf sorts
last and only ever moves a percentile up: it is infinitely late, never
interpolated into a finite value.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence

MIN_BEYOND = 10  # samples that must lie beyond a reported tail percentile
MAX_TAIL_PCT = 99


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of values (any order); inf entries sort last."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct * len(ordered) / 100))
    return ordered[rank - 1]


def tail_pct(n: int) -> int | None:
    """Highest whole percentile up to p99 with at least MIN_BEYOND samples beyond it.

    None when even the median has fewer than MIN_BEYOND samples beyond it.
    """
    for pct in range(MAX_TAIL_PCT, 49, -1):
        if n - math.ceil(pct * n / 100) >= MIN_BEYOND:
            return pct
    return None


def tail(values: Sequence[float]) -> tuple[int, float]:
    """(percentile, value) of the tail rule; the maximum, as p100, when samples are too few."""
    pct = tail_pct(len(values))
    if pct is None:
        return 100, max(values)
    return pct, percentile(values, pct)


def quiet_periods(marks: Sequence[tuple[int, ...]]) -> list[bool]:
    """Per period, whether the host took no CPU time during it or the period after.

    marks[i] holds the steal counters of the CPUs in use at period i's start,
    and marks[-1] is read after the last period. The kernel shows steal in
    10 ms ticks, so a short steal can show up a period late; the period after
    is therefore checked too.
    """
    stolen = [a != b for a, b in zip(marks, marks[1:])]
    return [not any(stolen[i : i + 2]) for i in range(len(stolen))]


def late_values(sent: Iterable, decided: dict) -> list[float]:
    """One latency per sent key: its decided value, or +inf when it was never decided."""
    return [decided.get(key, math.inf) for key in sent]


def covered(intervals: Iterable[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of [lo, hi) covered by the union of intervals."""
    total = 0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[tuple[int, int, int, int]]) -> dict[int, int]:
    """Span id -> duration minus the part of it that its child spans cover.

    Each span is (id, start, end, parent_id); parent_id is -1 for a root.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - covered(children.get(sid, ()), start, end)
        for sid, start, end, _ in spans
    }


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
