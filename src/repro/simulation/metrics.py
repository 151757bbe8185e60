"""Metric time series used by the simulator, the monitor and the reports.

A :class:`MetricSeries` is an append-only sequence of ``(timestamp, value)``
samples with simple aggregation helpers.  A :class:`MetricsRegistry` groups
series by ``(entity, metric)`` so the monitoring layer can pull e.g. the CPU
utilisation history of a node or the cumulative operation count of the
cluster.

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
from typing import Iterable, Iterator


@dataclass
class MetricSeries:
    """Append-only (timestamp, value) series."""

    name: str
    timestamps: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def record(self, timestamp: float, value: float) -> None:
        """Append a sample; timestamps must be non-decreasing."""
        if self.timestamps and timestamp < self.timestamps[-1]:
            raise ValueError(
                f"samples must be appended in time order: {timestamp} < {self.timestamps[-1]}"
            )
        self.timestamps.append(timestamp)
        self.values.append(float(value))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(zip(self.timestamps, self.values))

    def latest(self, default: float = 0.0) -> float:
        """Most recent value, or ``default`` if the series is empty."""
        return self.values[-1] if self.values else default

    def window(self, start: float, end: float) -> list[tuple[float, float]]:
        """Samples with ``start < timestamp <= end``.

        Half-open like :meth:`mean_between`, so chained windows
        (``window(0, 10)`` then ``window(10, 20)``) partition the series
        without double-counting the boundary tick.  The very first window
        of a series should therefore start strictly before its first
        timestamp (e.g. at ``-inf`` or any time before recording began).
        """
        lo = bisect_right(self.timestamps, start)
        hi = bisect_right(self.timestamps, end)
        return list(zip(self.timestamps[lo:hi], self.values[lo:hi]))

    def mean_between(self, start: float, end: float, default: float = 0.0) -> float:
        """Mean of the samples with ``start < timestamp <= end``.

        Allocation-free window aggregation for per-tick series (the SLA
        layer averages each tenant's tick-level latency/throughput over a
        sampling window).  The window is half-open so chained windows
        partition the series without double-counting boundary ticks.
        ``default`` is returned when the window holds no samples.
        """
        lo = bisect_right(self.timestamps, start)
        hi = bisect_right(self.timestamps, end)
        if hi <= lo:
            return default
        total = 0.0
        values = self.values
        for index in range(lo, hi):
            total += values[index]
        return total / (hi - lo)

    def last_n(self, n: int) -> list[float]:
        """The last ``n`` values (fewer if the series is shorter)."""
        if n <= 0:
            return []
        return self.values[-n:]

    def mean(self, last_n: int | None = None) -> float:
        """Arithmetic mean of the whole series or of its last ``last_n`` values."""
        values = self.values if last_n is None else self.last_n(last_n)
        if not values:
            return 0.0
        return sum(values) / len(values)

    def maximum(self, last_n: int | None = None) -> float:
        """Maximum of the whole series or of its last ``last_n`` values."""
        values = self.values if last_n is None else self.last_n(last_n)
        if not values:
            return 0.0
        return max(values)

    def total(self) -> float:
        """Sum of all recorded values."""
        return sum(self.values)

    def cumulative(self) -> list[float]:
        """Running sum of the values, aligned with :attr:`timestamps`."""
        out: list[float] = []
        acc = 0.0
        for value in self.values:
            acc += value
            out.append(acc)
        return out


@dataclass
class DistributionSeries:
    """Append-only (timestamp, summary) series of mergeable distributions.

    Values are summary objects exposing ``merge(other)`` and a no-argument
    constructor (duck-typed so this module stays independent of the latency
    module); the simulator's macro-tick appends the *same* frozen summary
    object at many timestamps, which window merges treat identically to the
    fresh summaries individual ticks record.
    """

    name: str
    timestamps: list[float] = field(default_factory=list)
    values: list = field(default_factory=list)

    def record(self, timestamp: float, summary) -> None:
        """Append a sample; timestamps must be non-decreasing."""
        if self.timestamps and timestamp < self.timestamps[-1]:
            raise ValueError(
                f"samples must be appended in time order: {timestamp} < {self.timestamps[-1]}"
            )
        self.timestamps.append(timestamp)
        self.values.append(summary)

    def __len__(self) -> int:
        return len(self.values)

    def window(self, start: float, end: float) -> list:
        """Summaries with ``start < timestamp <= end`` (half-open, like
        :meth:`MetricSeries.window`)."""
        lo = bisect_right(self.timestamps, start)
        hi = bisect_right(self.timestamps, end)
        return self.values[lo:hi]

    def merged_between(self, start: float, end: float):
        """Exact merge of the window's summaries (``None`` when empty)."""
        entries = self.window(start, end)
        if not entries:
            return None
        out = type(entries[0])()
        for summary in entries:
            out.merge(summary)
        return out

    def merged(self):
        """Exact merge of the whole series (``None`` when empty)."""
        if not self.values:
            return None
        return self.merged_between(float("-inf"), self.timestamps[-1])


class MetricsRegistry:
    """Groups metric series by entity and metric name."""

    def __init__(self) -> None:
        self._series: dict[tuple[str, str], MetricSeries] = {}
        self._distributions: dict[tuple[str, str], DistributionSeries] = {}

    def series(self, entity: str, metric: str) -> MetricSeries:
        """Return (creating if needed) the series for ``entity``/``metric``."""
        key = (entity, metric)
        if key not in self._series:
            self._series[key] = MetricSeries(name=f"{entity}.{metric}")
        return self._series[key]

    def record(self, entity: str, metric: str, timestamp: float, value: float) -> None:
        """Record one sample."""
        self.series(entity, metric).record(timestamp, value)

    def record_many(
        self, timestamp: float, samples: Iterable[tuple[str, str, float]]
    ) -> None:
        """Record many ``(entity, metric, value)`` samples at one timestamp.

        Batch variant of :meth:`record` for the simulator's per-tick metric
        flush: one pass, inlined appends, no per-sample method dispatch.
        """
        series_map = self._series
        for entity, metric, value in samples:
            key = (entity, metric)
            series = series_map.get(key)
            if series is None:
                series = series_map[key] = MetricSeries(name=f"{entity}.{metric}")
            timestamps = series.timestamps
            if timestamps and timestamp < timestamps[-1]:
                raise ValueError(
                    f"samples must be appended in time order: {timestamp} < {timestamps[-1]}"
                )
            timestamps.append(timestamp)
            series.values.append(float(value))

    def record_many_repeated(
        self,
        timestamps: list[float],
        samples: Iterable[tuple[str, str, float]],
    ) -> None:
        """Record the same ``(entity, metric, value)`` batch at many times.

        Backbone of the event kernel's macro-tick: a quiescent stretch emits
        identical per-tick values, so each series gets ``timestamps`` (all
        of them, in order) appended with its value repeated -- exactly the
        samples ``len(timestamps)`` :meth:`record_many` calls would have
        produced, without re-walking the sample list per tick.
        """
        if not timestamps:
            return
        count = len(timestamps)
        first = timestamps[0]
        series_map = self._series
        for entity, metric, value in samples:
            key = (entity, metric)
            series = series_map.get(key)
            if series is None:
                series = series_map[key] = MetricSeries(name=f"{entity}.{metric}")
            existing = series.timestamps
            if existing and first < existing[-1]:
                raise ValueError(
                    f"samples must be appended in time order: {first} < {existing[-1]}"
                )
            existing.extend(timestamps)
            series.values.extend([float(value)] * count)

    def distribution_series(self, entity: str, metric: str) -> DistributionSeries:
        """Return (creating if needed) the distribution series for a key."""
        key = (entity, metric)
        if key not in self._distributions:
            self._distributions[key] = DistributionSeries(name=f"{entity}.{metric}")
        return self._distributions[key]

    def distribution(self, entity: str, metric: str) -> DistributionSeries | None:
        """The distribution series for a key, or ``None`` when never recorded."""
        return self._distributions.get((entity, metric))

    def record_distributions(
        self, timestamp: float, samples: Iterable[tuple[str, str, object]]
    ) -> None:
        """Record many ``(entity, metric, summary)`` samples at one timestamp."""
        series_map = self._distributions
        for entity, metric, summary in samples:
            key = (entity, metric)
            series = series_map.get(key)
            if series is None:
                series = series_map[key] = DistributionSeries(name=f"{entity}.{metric}")
            timestamps = series.timestamps
            if timestamps and timestamp < timestamps[-1]:
                raise ValueError(
                    f"samples must be appended in time order: {timestamp} < {timestamps[-1]}"
                )
            timestamps.append(timestamp)
            series.values.append(summary)

    def record_distributions_repeated(
        self,
        timestamps: list[float],
        samples: Iterable[tuple[str, str, object]],
    ) -> None:
        """Record the same ``(entity, metric, summary)`` batch at many times.

        Distribution analogue of :meth:`record_many_repeated` for the event
        kernel's macro-tick: the *same* summary object is appended at every
        timestamp (references, not copies), so a window merge over the span
        is bit-identical to merging the per-tick summaries ``len(timestamps)``
        individual ticks would have recorded.
        """
        if not timestamps:
            return
        count = len(timestamps)
        first = timestamps[0]
        series_map = self._distributions
        for entity, metric, summary in samples:
            key = (entity, metric)
            series = series_map.get(key)
            if series is None:
                series = series_map[key] = DistributionSeries(name=f"{entity}.{metric}")
            existing = series.timestamps
            if existing and first < existing[-1]:
                raise ValueError(
                    f"samples must be appended in time order: {first} < {existing[-1]}"
                )
            existing.extend(timestamps)
            series.values.extend([summary] * count)

    def entities(self) -> list[str]:
        """Distinct entity names with at least one series."""
        return sorted({entity for entity, _ in self._series})

    def metrics_for(self, entity: str) -> list[str]:
        """Metric names recorded for ``entity``."""
        return sorted(metric for ent, metric in self._series if ent == entity)

    def latest(self, entity: str, metric: str, default: float = 0.0) -> float:
        """Latest value for ``entity``/``metric`` (``default`` when absent)."""
        key = (entity, metric)
        if key not in self._series:
            return default
        return self._series[key].latest(default)

    def drop_entity(self, entity: str) -> None:
        """Remove all series belonging to ``entity`` (e.g. a removed node)."""
        for key in [key for key in self._series if key[0] == entity]:
            del self._series[key]
        for key in [key for key in self._distributions if key[0] == entity]:
            del self._distributions[key]

    def items(self) -> Iterable[tuple[tuple[str, str], MetricSeries]]:
        """All ``((entity, metric), series)`` pairs."""
        return self._series.items()
