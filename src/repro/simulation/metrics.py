"""Metric time series used by the simulator, the monitor and the reports.

A :class:`MetricSeries` is an append-only sequence of ``(timestamp, value)``
samples with window aggregation.  A :class:`MetricsRegistry` groups
series by ``(entity, metric)`` so the monitoring layer can pull e.g. the CPU
utilisation history of a node or the cumulative operation count of the
cluster.

Alongside the scalar channels the registry keeps *distribution* channels: a
:class:`DistributionSeries` is the same append-only shape but each sample is
a mergeable summary object (the simulator records one
:class:`~repro.simulation.latency.LatencySummary` per tenant per tick).
Both kinds share one base (:class:`_Series`) and one registry append path.
Window aggregation merges instead of averaging, so the SLA layer can ask
for the exact latency distribution of any half-open sampling window.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable


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
        self.timestamps.append(timestamp)
        self.values.append(self._coerce(value))

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
        samples.
        """
        lo, hi = self._bounds(start, end)
        if hi <= lo:
            return default
        total = 0.0
        values = self.values
        for index in range(lo, hi):
            total += values[index]
        return total / (hi - lo)


class DistributionSeries(_Series):
    """Append-only series of mergeable distribution summaries.

    Values are summary objects exposing ``merge(other)`` and a no-argument
    constructor (duck-typed so this module stays independent of the latency
    module); the simulator's macro-tick appends the *same* frozen summary
    object at many timestamps, which window merges treat identically to the
    fresh summaries individual ticks record.
    """

    def merged_between(self, start: float, end: float):
        """Exact merge of the window's summaries (``None`` when empty)."""
        lo, hi = self._bounds(start, end)
        if hi <= lo:
            return None
        values = self.values
        out = type(values[lo])()
        for index in range(lo, hi):
            out.merge(values[index])
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

    def record_many(
        self, timestamp: float, samples: Iterable[tuple[str, str, float]]
    ) -> None:
        """Record many ``(entity, metric, value)`` samples at one timestamp."""
        self._append(self._series, MetricSeries, [timestamp], samples)

    def record_many_repeated(
        self,
        timestamps: list[float],
        samples: Iterable[tuple[str, str, float]],
    ) -> None:
        """Record the same ``(entity, metric, value)`` batch at many times.

        Backbone of the simulator's apply path: a quiescent stretch emits
        identical per-tick values, so each series gets ``timestamps`` (all
        of them, in order) appended with its value repeated -- exactly the
        samples ``len(timestamps)`` :meth:`record_many` calls would have
        produced, without re-walking the sample list per tick.
        """
        self._append(self._series, MetricSeries, timestamps, samples)

    def record_distributions(
        self, timestamp: float, samples: Iterable[tuple[str, str, object]]
    ) -> None:
        """Record many ``(entity, metric, summary)`` samples at one timestamp."""
        self._append(self._distributions, DistributionSeries, [timestamp], samples)

    def record_distributions_repeated(
        self,
        timestamps: list[float],
        samples: Iterable[tuple[str, str, object]],
    ) -> None:
        """Record the same ``(entity, metric, summary)`` batch at many times.

        The *same* summary object is appended at every timestamp
        (references, not copies), so a window merge over the span is
        bit-identical to merging the per-tick summaries ``len(timestamps)``
        individual ticks would have recorded.
        """
        self._append(self._distributions, DistributionSeries, timestamps, samples)

    @staticmethod
    def _append(series_map: dict, kind: type, timestamps: list[float], samples) -> None:
        """Append every ``(entity, metric, value)`` sample at each timestamp.

        One pass over the samples, inlined appends, no per-sample method
        dispatch; missing series of ``kind`` are created on first use.
        """
        if not timestamps:
            return
        count = len(timestamps)
        first = timestamps[0]
        coerce = kind._coerce
        for entity, metric, value in samples:
            key = (entity, metric)
            series = series_map.get(key)
            if series is None:
                series = series_map[key] = kind(name=f"{entity}.{metric}")
            existing = series.timestamps
            if existing and first < existing[-1]:
                raise ValueError(
                    f"samples must be appended in time order: {first} < {existing[-1]}"
                )
            existing.extend(timestamps)
            series.values.extend([coerce(value)] * count)

    def distribution(self, entity: str, metric: str) -> DistributionSeries | None:
        """The distribution series for a key, or ``None`` when never recorded."""
        return self._distributions.get((entity, metric))

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
