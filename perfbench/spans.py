"""Statistics the benchmark reports: percentiles, self time, wall shares.

Pure functions over plain numbers and span rows, so they can be unit
tested without the program.  A span row is a dict with ``name``,
``span_id``, ``parent_id``, ``start`` and ``duration`` (seconds), the
shape :meth:`repro.obs.SpanRecord.to_dict` writes; ``attributes`` is
optional.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """Median of ``values`` (NaN when empty)."""
    return statistics.median(values) if values else math.nan


def tail_percentile(values: Sequence[float], want: float = 99.0,
                    beyond: int = MIN_BEYOND
                    ) -> Tuple[Optional[float], Optional[float]]:
    """The highest percentile up to ``want`` with ``beyond`` samples past it.

    Returns ``(percentile, value)`` by the nearest-rank rule, or
    ``(None, None)`` when that percentile would not lie above the
    median (fewer than ``2 * beyond`` samples).  Infinite samples
    (failed operations) sort last, so they count as missing every
    limit.
    """
    n = len(values)
    if n < 2 * beyond:
        return None, None
    pct = min(float(want), 100.0 * (n - beyond) / n)
    rank = math.ceil(pct / 100.0 * n)
    return pct, sorted(values)[rank - 1]


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between first and third quartile, over the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def due_latencies(due: Sequence[float], done: Sequence[Optional[float]]
                  ) -> List[float]:
    """Latency of each operation measured from when it was due.

    ``done`` is None for a failed operation, which counts as infinitely
    late.  Timing from the due time rather than the send time charges
    a stall to every operation queued behind it.
    """
    return [math.inf if end is None else end - start
            for start, end in zip(due, done)]


def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    cursor = -math.inf
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_time(start: float, end: float,
              children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part of it its children cover.

    Children may overlap each other (threads, worker processes) or
    stick out of the parent; only their union inside ``[start, end]``
    is subtracted.
    """
    clipped = [(max(lo, start), min(hi, end)) for lo, hi in children]
    return (end - start) - _union_length(clipped)


def self_times(rows: Sequence[Dict]) -> Dict[int, float]:
    """Self time of every span row, keyed by ``span_id``."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for row in rows:
        if row.get("parent_id") is not None:
            children[row["parent_id"]].append(
                (row["start"], row["start"] + row["duration"]))
    return {row["span_id"]: self_time(row["start"],
                                      row["start"] + row["duration"],
                                      children.get(row["span_id"], ()))
            for row in rows}


def wall_shares(rows: Sequence[Dict]) -> Dict[str, float]:
    """Split the wall time the spans cover among span names.

    At each instant the innermost active spans (those with no active
    child) share the instant equally, so concurrent worker spans split
    the wall instead of double-counting it.  The shares sum to the
    length of the union of all spans, and for spans that never overlap
    a sibling each share is the span's self time.
    """
    rows = [row for row in rows if row["duration"] > 0]
    by_id = {row["span_id"]: row for row in rows}
    events = []
    for row in rows:
        events.append((row["start"], 1, row["span_id"]))
        events.append((row["start"] + row["duration"], 0, row["span_id"]))
    events.sort()
    active_children: Dict[int, int] = defaultdict(int)
    active = set()
    leaves = set()
    shares: Dict[str, float] = defaultdict(float)
    previous = None
    for time, is_start, span_id in events:
        if previous is not None and leaves and time > previous:
            part = (time - previous) / len(leaves)
            for leaf in leaves:
                shares[by_id[leaf]["name"]] += part
        previous = time
        parent = by_id[span_id].get("parent_id")
        parent_active = parent in active
        if is_start:
            active.add(span_id)
            if active_children[span_id] == 0:
                leaves.add(span_id)
            if parent is not None:
                active_children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(span_id)
            leaves.discard(span_id)
            if parent is not None:
                active_children[parent] -= 1
                if parent_active and active_children[parent] == 0:
                    leaves.add(parent)
    return dict(shares)
