"""Test oracle for the metrics registry: series written sample by sample.

:class:`ReferenceMetricsRegistry` keeps one :class:`ReferenceMetricSeries`
or :class:`ReferenceDistributionSeries` per ``(entity, metric)`` key and
appends every recorded batch to each of its series.  Window merges fold
summaries in one at a time, with no run-length shortcut, and the time-order
check is per series.  ``tests/test_metrics_log.py`` runs random operation
sequences against it and against
:class:`~repro.simulation.metrics.MetricsRegistry` and requires bit-identical
reads.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable


@dataclass
class _ReferenceSeries:
    """Append-only ``(timestamp, value)`` series; windows are ``(start, end]``."""

    name: str
    timestamps: list[float] = field(default_factory=list)
    values: list = field(default_factory=list)

    @staticmethod
    def _coerce(value):
        return value

    def __len__(self) -> int:
        return len(self.values)

    def _bounds(self, start: float, end: float) -> tuple[int, int]:
        return bisect_right(self.timestamps, start), bisect_right(self.timestamps, end)


class ReferenceMetricSeries(_ReferenceSeries):
    """Float samples with a sequential window mean."""

    _coerce = float

    def latest(self, default: float = 0.0) -> float:
        return self.values[-1] if self.values else default

    def mean_between(self, start: float, end: float, default: float = 0.0) -> float:
        lo, hi = self._bounds(start, end)
        if hi <= lo:
            return default
        total = 0.0
        for index in range(lo, hi):
            total += self.values[index]
        return total / (hi - lo)


class ReferenceDistributionSeries(_ReferenceSeries):
    """Summary samples; a window merge folds in every sample on its own."""

    def merged_between(self, start: float, end: float):
        lo, hi = self._bounds(start, end)
        if hi <= lo:
            return None
        out = type(self.values[lo])()
        for index in range(lo, hi):
            out.merge(self.values[index])
        return out

    def merged(self):
        if not self.values:
            return None
        return self.merged_between(float("-inf"), self.timestamps[-1])


class ReferenceMetricsRegistry:
    """Per-series registry: every batch is written into every series it names."""

    def __init__(self) -> None:
        self._series: dict[tuple[str, str], ReferenceMetricSeries] = {}
        self._distributions: dict[tuple[str, str], ReferenceDistributionSeries] = {}

    def series(self, entity: str, metric: str) -> ReferenceMetricSeries:
        key = (entity, metric)
        if key not in self._series:
            self._series[key] = ReferenceMetricSeries(name=f"{entity}.{metric}")
        return self._series[key]

    def record_many(self, timestamp: float, samples: Iterable[tuple[str, str, float]]) -> None:
        self._append(self._series, ReferenceMetricSeries, [timestamp], samples)

    def record_many_repeated(
        self, timestamps: list[float], samples: Iterable[tuple[str, str, float]]
    ) -> None:
        self._append(self._series, ReferenceMetricSeries, timestamps, samples)

    def record_distributions(
        self, timestamp: float, samples: Iterable[tuple[str, str, object]]
    ) -> None:
        self._append(self._distributions, ReferenceDistributionSeries, [timestamp], samples)

    def record_distributions_repeated(
        self, timestamps: list[float], samples: Iterable[tuple[str, str, object]]
    ) -> None:
        self._append(self._distributions, ReferenceDistributionSeries, timestamps, samples)

    @staticmethod
    def _append(series_map: dict, kind: type, timestamps: list[float], samples) -> None:
        if not timestamps:
            return
        for entity, metric, value in samples:
            key = (entity, metric)
            series = series_map.get(key)
            if series is None:
                series = series_map[key] = kind(name=f"{entity}.{metric}")
            if series.timestamps and timestamps[0] < series.timestamps[-1]:
                raise ValueError(
                    f"samples must be appended in time order: "
                    f"{timestamps[0]} < {series.timestamps[-1]}"
                )
            series.timestamps.extend(timestamps)
            series.values.extend([kind._coerce(value)] * len(timestamps))

    def distribution(self, entity: str, metric: str) -> ReferenceDistributionSeries | None:
        return self._distributions.get((entity, metric))

    def latest(self, entity: str, metric: str, default: float = 0.0) -> float:
        key = (entity, metric)
        if key not in self._series:
            return default
        return self._series[key].latest(default)

    def items(self):
        return list(self._series.items())

    def distributions(self):
        return list(self._distributions.items())
