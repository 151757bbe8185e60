"""Order statistics shared by the runner, the comparison tool and the tests."""

from __future__ import annotations

import statistics

#: Percentiles a tail timing may be reported at, lowest first.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def _per_mille(p: float) -> int:
    # Integer arithmetic keeps ranks exact: 0.99 * 1000 is not 990 in binary.
    return round(p * 10)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile (``p`` in 0..100) of non-empty ``values``."""
    ordered = sorted(values)
    rank = max(1, -(-_per_mille(p) * len(ordered) // 1000))
    return ordered[rank - 1]


def tail_percentile(count: int) -> float | None:
    """The highest of :data:`TAIL_PERCENTILES` with at least ten samples beyond it.

    ``None`` when even the median has fewer than ten samples above it.
    """
    eligible = [p for p in TAIL_PERCENTILES if count * (1000 - _per_mille(p)) >= 10_000]
    return eligible[-1] if eligible else None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for a zero median)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0
