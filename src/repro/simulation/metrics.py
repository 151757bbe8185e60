"""Metric time series used by the simulator and the experiment harness.

A :class:`MetricSeries` is an append-only sequence of ``(timestamp, value)``
samples with window aggregation.  A :class:`MetricsRegistry` groups series
by ``(entity, metric)``.  The simulator records one throughput and one
latency sample per tenant per tick (entity ``workload:<binding>``), and the
experiment harness averages them over its sampling windows.  Node state is
not recorded here: the controllers read it from the nodes themselves.

Alongside the scalar channels the registry keeps *distribution* channels: a
:class:`DistributionSeries` is the same append-only shape but each sample is
a mergeable summary object (the simulator records one
:class:`~repro.simulation.latency.LatencySummary` per tenant per tick).
Window aggregation merges instead of averaging, so the SLA layer can ask
for the exact latency distribution of any half-open sampling window.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Sequence


@dataclass
class _Series:
    """Append-only ``(timestamp, value)`` series; windows are ``(start, end]``.

    Half-open windows let chained windows partition a series without
    double-counting the boundary tick, so the first window of a series
    should start strictly before its first timestamp.
    """

    name: str
    timestamps: list[float] = field(default_factory=list)
    values: list = field(default_factory=list)

    @staticmethod
    def _coerce(value):
        """How a recorded value is stored (scalar series store floats)."""
        return value

    def record(self, timestamp: float, value) -> None:
        """Append a sample; timestamps must be non-decreasing."""
        if self.timestamps and timestamp < self.timestamps[-1]:
            raise ValueError(
                f"samples must be appended in time order: {timestamp} < {self.timestamps[-1]}"
            )
        self._extend((timestamp,), self._coerce(value))

    def _extend(self, timestamps, value) -> None:
        """Append ``value`` at each of ``timestamps`` (already in order)."""
        self.timestamps.extend(timestamps)
        self.values.extend([value] * len(timestamps))

    def __len__(self) -> int:
        return len(self.values)

    def _bounds(self, start: float, end: float) -> tuple[int, int]:
        """Index range of the samples with ``start < timestamp <= end``."""
        return bisect_right(self.timestamps, start), bisect_right(self.timestamps, end)


class MetricSeries(_Series):
    """Append-only series of float samples."""

    _coerce = float

    def latest(self, default: float = 0.0) -> float:
        """Most recent value, or ``default`` if the series is empty."""
        return self.values[-1] if self.values else default

    def mean_between(self, start: float, end: float, default: float = 0.0) -> float:
        """Mean of the samples with ``start < timestamp <= end``.

        Allocation-free window aggregation for per-tick series (the SLA
        layer averages each tenant's tick-level latency/throughput over a
        sampling window).  ``default`` is returned when the window holds no
        samples.  The sum runs sample by sample, in order: repeated values
        are not folded into a multiply, which could round differently.
        """
        lo, hi = self._bounds(start, end)
        if hi <= lo:
            return default
        total = 0.0
        values = self.values
        for index in range(lo, hi):
            total += values[index]
        return total / (hi - lo)


@dataclass
class DistributionSeries(_Series):
    """Append-only series of mergeable distribution summaries.

    Values are summary objects exposing ``merge(other)``, ``scale(k)`` and a
    no-argument constructor (duck-typed so this module stays independent of
    the latency module).  The simulator's macro-tick appends the *same*
    frozen summary object at many timestamps; the series remembers where
    each run of one object starts, and a window merge folds a run of ``k``
    in as ``scale(k)`` -- integer counts times ``k``, bit-identical to
    merging the object ``k`` times.
    """

    _run_starts: list[int] = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        values = self.values
        self._run_starts = [
            index
            for index in range(len(values))
            if index == 0 or values[index] is not values[index - 1]
        ]

    def _extend(self, timestamps, value) -> None:
        values = self.values
        if not values or values[-1] is not value:
            self._run_starts.append(len(values))
        self.timestamps.extend(timestamps)
        values.extend([value] * len(timestamps))

    def merged_between(self, start: float, end: float):
        """Exact merge of the window's summaries (``None`` when empty)."""
        lo, hi = self._bounds(start, end)
        if hi <= lo:
            return None
        values = self.values
        starts = self._run_starts
        out = type(values[lo])()
        run = bisect_right(starts, lo)
        index = lo
        while index < hi:
            stop = starts[run] if run < len(starts) and starts[run] < hi else hi
            count = stop - index
            summary = values[index]
            out.merge(summary if count == 1 else summary.scale(count))
            index = stop
            run += 1
        return out

    def merged(self):
        """Exact merge of the whole series (``None`` when empty)."""
        if not self.values:
            return None
        return self.merged_between(float("-inf"), self.timestamps[-1])


class _Channel(dict):
    """One kind's series by ``(entity, metric)`` in creation order, and the
    last timestamp recorded into any of them."""

    def __init__(self, kind: type) -> None:
        super().__init__()
        self.kind = kind
        self.end = float("-inf")

    def series(self, key: tuple[str, str]):
        """The series of ``key``, created empty if it is new."""
        series = self.get(key)
        if series is None:
            series = self[key] = self.kind(name=f"{key[0]}.{key[1]}")
        return series

    def append(self, timestamps, samples) -> None:
        """Record every ``(entity, metric, value)`` sample at each timestamp.

        Timestamps must not go back past any earlier batch of this kind, and
        a batch must name each key once.  Both are checked before anything
        is written, so a rejected batch leaves the channel unchanged.
        """
        if not timestamps:
            return
        if timestamps[0] < self.end:
            raise ValueError(
                f"samples must be appended in time order: {timestamps[0]} < {self.end}"
            )
        coerce = self.kind._coerce
        batch = {(entity, metric): coerce(value) for entity, metric, value in samples}
        if len(batch) != len(samples):
            raise ValueError("a batch must name each (entity, metric) key once")
        get = self.get
        for key, value in batch.items():
            series = get(key)
            if series is None:
                series = self.series(key)
            series._extend(timestamps, value)
        self.end = timestamps[-1]


class MetricsRegistry:
    """Groups metric series by entity and metric name."""

    def __init__(self) -> None:
        self._scalars = _Channel(MetricSeries)
        self._distributions = _Channel(DistributionSeries)

    def series(self, entity: str, metric: str) -> MetricSeries:
        """Return (creating if needed) the series for ``entity``/``metric``."""
        return self._scalars.series((entity, metric))

    def record_many(
        self, timestamp: float, samples: Sequence[tuple[str, str, float]]
    ) -> None:
        """Record many ``(entity, metric, value)`` samples at one timestamp."""
        self._scalars.append((timestamp,), samples)

    def record_many_repeated(
        self,
        timestamps: list[float],
        samples: Sequence[tuple[str, str, float]],
    ) -> None:
        """Record the same ``(entity, metric, value)`` batch at many times.

        Backbone of the simulator's apply path: a quiescent stretch emits
        identical per-tick values, so each series gets ``timestamps`` (all
        of them, in order) with its value repeated -- exactly the samples
        ``len(timestamps)`` :meth:`record_many` calls would have produced.
        """
        self._scalars.append(timestamps, samples)

    def record_distributions(
        self, timestamp: float, samples: Sequence[tuple[str, str, object]]
    ) -> None:
        """Record many ``(entity, metric, summary)`` samples at one timestamp."""
        self._distributions.append((timestamp,), samples)

    def record_distributions_repeated(
        self,
        timestamps: list[float],
        samples: Sequence[tuple[str, str, object]],
    ) -> None:
        """Record the same ``(entity, metric, summary)`` batch at many times.

        The *same* summary object is kept for every timestamp (references,
        not copies), so a window merge over the span is bit-identical to
        merging the per-tick summaries ``len(timestamps)`` individual ticks
        would have recorded.
        """
        self._distributions.append(timestamps, samples)

    def distribution(self, entity: str, metric: str) -> DistributionSeries | None:
        """The distribution series for a key, or ``None`` when never recorded."""
        return self._distributions.get((entity, metric))

    def latest(self, entity: str, metric: str, default: float = 0.0) -> float:
        """Latest value for ``entity``/``metric`` (``default`` when absent)."""
        series = self._scalars.get((entity, metric))
        return default if series is None else series.latest(default)

    def items(self) -> list[tuple[tuple[str, str], MetricSeries]]:
        """All ``((entity, metric), series)`` pairs, in creation order."""
        return list(self._scalars.items())

    def distributions(self) -> list[tuple[tuple[str, str], DistributionSeries]]:
        """All ``((entity, metric), distribution series)`` pairs, in creation order."""
        return list(self._distributions.items())
