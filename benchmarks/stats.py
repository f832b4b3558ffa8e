"""Order statistics and ratios used in the benchmark's reports.

Pure Python on purpose: ``run.py`` imports this module before it has
pinned the BLAS thread count, so nothing here may import numpy.
"""

from __future__ import annotations

import statistics
from typing import Sequence

TAIL_BEYOND = 10


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """The highest percentile that has at least ``beyond`` samples above it.

    With n samples sorted ascending, that is the (n - beyond)-th smallest
    sample, which sits at percentile 100 * (n - beyond) / n. Returns
    (value, percentile, n). No interpolation: the value is a sample.
    """
    n = len(values)
    if n <= beyond:
        raise ValueError(f"a tail with {beyond} samples beyond it needs more than "
                         f"{beyond} samples, got {n}")
    ordered = sorted(values)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def useful_ratio(useful: int, entries: int) -> float:
    """Share of computed entries that were needed; 0 when nothing was computed."""
    return useful / entries if entries else 0.0


def self_times(spans: Sequence[Sequence]) -> tuple[dict[str, float], dict[str, float]]:
    """Per-name self time and total time of nested spans.

    Each span is (name, start, end, parent), where parent is the index of
    the enclosing span in ``spans`` or -1. A span's self time is its
    duration minus the durations of its direct children, which cover
    disjoint parts of it because calls nest.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    own: dict[str, float] = {}
    total: dict[str, float] = {}
    for i, (name, start, end, _) in enumerate(spans):
        own[name] = own.get(name, 0.0) + (end - start - child[i])
        total[name] = total.get(name, 0.0) + (end - start)
    return own, total
