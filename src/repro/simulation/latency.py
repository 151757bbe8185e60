"""Deterministic, mergeable latency distribution summaries.

The scalar-mean latency path loses exactly the signal MeT and Tiramola
disagree about: *tail* behaviour.  A :class:`LatencySummary` is the
distribution-shaped replacement -- a fixed-bin, log-spaced histogram with

* **O(1) record**: a value lands in ``floor(log10(v / MIN_MS) * BINS_PER_DECADE)``;
* **exact merge**: counts are integers, so merging is integer addition --
  bit-exact, associative and commutative regardless of merge order;
* **quantile-by-rank** with a declared error bound: ``quantile(q)`` returns
  the geometric midpoint of the smallest bin whose cumulative count reaches
  rank ``q``, so the result is within one bin width (a factor of
  ``10 ** (1 / BINS_PER_DECADE)``, ~12% at 20 bins/decade) of the true
  rank-``q`` value -- a *rank-error <= bin-width* guarantee;
* **no wall-clock or random state**: a summary is a pure function of the
  recorded (value, weight) atoms, so byte-reproducibility of the simulator
  survives the distribution channel end to end.

Fractional weights (a binding's ``region_weight * op_fraction`` products)
are quantised to integer counts at ``WEIGHT_SCALE`` resolution before they
enter the histogram.  Quantising at *record* time -- rather than keeping
float counts -- is what makes merge exact and makes ``scale(k)`` (an
integer multiply) bit-identical to ``k``-fold self-merge, which is the
property the event kernel's macro-tick fast-forward leans on.
"""

from __future__ import annotations

import math
from typing import Iterable

__all__ = [
    "BINS_PER_DECADE",
    "LatencySummary",
    "MAX_BIN_INDEX",
    "MIN_MS",
    "WEIGHT_SCALE",
    "bin_index",
    "bin_value_ms",
    "quantise_weight",
]

#: Histogram resolution: bins per decade of latency.  The knob trading
#: quantile accuracy (relative bin width = ``10 ** (1/BINS_PER_DECADE)``,
#: ~12.2% at 20) against per-summary memory (sparse dict entries).  See
#: PERFORMANCE.md before changing: goldens encode bin indices, so any change
#: regenerates the whole corpus.
BINS_PER_DECADE = 20

#: Lower edge of bin 0 (milliseconds).  Everything at or below it lands in
#: bin 0; sub-microsecond latencies carry no SLA signal.
MIN_MS = 1e-3

#: Bins span MIN_MS .. 10**(MAX/BPD) * MIN_MS; 180 bins cover 1e-3..1e6 ms,
#: comfortably past the 500 ms unavailable-region sentinel.
MAX_BIN_INDEX = 9 * BINS_PER_DECADE

#: Integer counts per unit of weight.  A power of two, so quantisation is
#: one float multiply plus a round, and any weight down to ~1.5e-5 still
#: contributes at least one count (smaller positive weights are floored to
#: a single count rather than vanishing).
WEIGHT_SCALE = 1 << 16

_LOG_MIN = math.log10(MIN_MS)


def bin_index(value_ms: float) -> int:
    """Histogram bin of a latency value (clamped to the covered range)."""
    if value_ms <= MIN_MS:
        return 0
    index = int((math.log10(value_ms) - _LOG_MIN) * BINS_PER_DECADE)
    return index if index < MAX_BIN_INDEX else MAX_BIN_INDEX


def bin_value_ms(index: int) -> float:
    """Representative latency of a bin: its geometric midpoint."""
    return 10.0 ** (_LOG_MIN + (index + 0.5) / BINS_PER_DECADE)


def quantise_weight(weight: float) -> int:
    """Integer count for a fractional weight (positive weights never vanish)."""
    count = int(round(weight * WEIGHT_SCALE))
    if count <= 0:
        return 1 if weight > 0.0 else 0
    return count


class LatencySummary:
    """Sparse fixed-bin log-spaced latency histogram with integer counts."""

    __slots__ = ("counts",)

    # Lint rule D6: these attributes are mergeable integer channels --
    # merge()/scale() are bit-exact only while every write stays integral,
    # so the static pass flags any float flowing into them.
    __mergeable_integer_channels__ = ("counts",)

    def __init__(self, counts: dict[int, int] | None = None) -> None:
        #: bin index -> integer count (multiples of 1/WEIGHT_SCALE weight).
        self.counts: dict[int, int] = counts if counts is not None else {}

    # -- recording ------------------------------------------------------- #
    def record(self, value_ms: float, weight: float = 1.0) -> None:
        """Record one latency atom with a (possibly fractional) weight."""
        count = quantise_weight(weight)
        if count:
            index = bin_index(value_ms)
            counts = self.counts
            counts[index] = counts.get(index, 0) + count

    # -- combination ----------------------------------------------------- #
    def merge(self, other: "LatencySummary") -> "LatencySummary":
        """Fold ``other`` into this summary in place (exact; returns self)."""
        counts = self.counts
        for index, count in other.counts.items():
            counts[index] = counts.get(index, 0) + count
        return self

    @classmethod
    def merged(cls, summaries: Iterable["LatencySummary"]) -> "LatencySummary":
        """A fresh summary holding the exact sum of ``summaries``."""
        out = cls()
        for summary in summaries:
            out.merge(summary)
        return out

    def scale(self, k: int) -> "LatencySummary":
        """A new summary with every count multiplied by ``k``.

        Integer multiplication, so ``scale(k)`` is bit-identical to merging
        ``k`` copies of this summary -- the macro-tick equivalence the event
        kernel's quiescence skipping relies on.
        """
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"scale factor must be a non-negative int, got {k!r}")
        if k == 0:
            # Keep the sparse invariant (no zero-count bins): scaling by 0
            # is the empty summary, exactly like merging zero copies.
            return LatencySummary()
        return LatencySummary({index: count * k for index, count in self.counts.items()})

    def copy(self) -> "LatencySummary":
        """An independent copy (mutating it leaves this summary intact)."""
        return LatencySummary(dict(self.counts))

    # -- queries --------------------------------------------------------- #
    @property
    def total_count(self) -> int:
        """Total quantised counts recorded."""
        return sum(self.counts.values())

    def __bool__(self) -> bool:
        return bool(self.counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatencySummary):
            return NotImplemented
        return self.counts == other.counts

    def __repr__(self) -> str:
        return f"LatencySummary(bins={len(self.counts)}, total={self.total_count})"

    def quantile(self, q: float) -> float:
        """Rank-``q`` latency (ms): midpoint of the bin holding that rank.

        Monotone in ``q``.  The true rank-``q`` atom lies inside the
        returned bin, so the result is within one bin width of it (relative
        error at most ``10 ** (1 / BINS_PER_DECADE)``).  0.0 for an empty
        summary.
        """
        counts = self.counts
        if not counts:
            return 0.0
        total = sum(counts.values())
        target = q * total
        cumulative = 0
        for index in sorted(counts):
            cumulative += counts[index]
            if cumulative >= target:
                return bin_value_ms(index)
        return bin_value_ms(max(counts))

    # -- serialisation --------------------------------------------------- #
    def to_pairs(self) -> list[list[int]]:
        """Compact sparse form: ``[[bin, count], ...]`` sorted by bin."""
        return [[index, self.counts[index]] for index in sorted(self.counts)]
