"""Closed integer interval sets.

All header dimensions (addresses, ports, protocol numbers, ICMP types) are
handled as sorted tuples of disjoint, non-adjacent ``(lo, hi)`` pairs with
inclusive bounds.  Every public function returns intervals in that normal
form, so structural equality of two interval sets implies set equality.
"""

from __future__ import annotations

from typing import Iterable

Interval = tuple[int, int]
IntervalSet = tuple[Interval, ...]


def normalize(ranges: Iterable[tuple[int, int]]) -> IntervalSet:
    """Sort, merge overlapping and adjacent ranges, drop empty ones."""
    merged: list[Interval] = []
    for lo, hi in sorted(ranges):
        if lo > hi:
            continue
        if merged and lo <= merged[-1][1] + 1:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return tuple(merged)


def contains(ranges: IntervalSet, value: int) -> bool:
    for lo, hi in ranges:
        if lo <= value <= hi:
            return True
        if lo > value:
            break
    return False


def intersect(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    """Intersection of two normalized interval sets."""
    out: list[Interval] = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo <= hi:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return tuple(out)


def union(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    return normalize(list(a) + list(b))


def subtract(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    """Points of ``a`` not in ``b``, in one merge pass over both normalized sets."""
    out: list[Interval] = []
    j = 0
    for lo, hi in a:
        while j < len(b) and b[j][1] < lo:
            j += 1
        k = j
        while k < len(b) and b[k][0] <= hi and lo <= hi:
            if b[k][0] > lo:
                out.append((lo, b[k][0] - 1))
            lo = b[k][1] + 1
            k += 1
        if lo <= hi:
            out.append((lo, hi))
    return tuple(out)

