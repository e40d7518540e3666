"""Order statistics and span arithmetic used by the benchmark.

Pure functions over plain numbers: no engine imports, so the unit tests
in ``perfbench/tests`` exercise them without the package on the path.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

#: Candidate tail percentiles, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)

#: A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def rank_index(p: float, n: int) -> int:
    """Nearest-rank index (0-based) of the ``p``-th percentile of ``n``
    sorted samples."""
    if n < 1:
        raise ValueError("no samples")
    # Rounding first keeps 99.9% of 10000 at 9990, not 9990.000000000002.
    return max(0, math.ceil(round(p * n / 100.0, 9)) - 1)


def samples_beyond(p: float, n: int) -> int:
    """How many of ``n`` sorted samples lie above the ``p``-th
    percentile's rank."""
    return n - 1 - rank_index(p, n)


def percentile(values: Sequence[float], p: float) -> float:
    """The nearest-rank ``p``-th percentile of ``values``."""
    ordered = sorted(values)
    return ordered[rank_index(p, len(ordered))]


def tail_percentile(n: int, ladder: Sequence[float] = PERCENTILE_LADDER,
                    min_beyond: int = MIN_BEYOND) -> float | None:
    """The highest percentile of ``ladder`` with at least ``min_beyond``
    of ``n`` samples beyond it, or ``None`` when even the lowest has
    too few."""
    best = None
    for p in ladder:
        if samples_beyond(p, n) >= min_beyond:
            best = p
    return best


def covered_ns(intervals: Iterable[tuple[int, int]],
               lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi)``."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[tuple[int, int | None, int, int]]
               ) -> dict[int, int]:
    """``{span id: self time}`` for spans given as ``(id, parent, start,
    end)`` tuples.

    A span's self time is its duration minus the part of it that its
    direct children cover; overlapping children are counted once.
    """
    spans = list(spans)
    children: dict[int, list[tuple[int, int]]] = {}
    for _, parent, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {id_: (end - start)
            - covered_ns(children.get(id_, ()), start, end)
            for id_, _, start, end in spans}
