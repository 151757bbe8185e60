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
Window aggregation merges instead of averaging, so the SLA layer can ask
for the exact latency distribution of any half-open sampling window.

The registry does not write series as it records.  Each kind (scalar,
distribution) keeps an append-only *segment log*: one entry per recorded
batch -- its timestamps, its keys and its values -- stored as flat columns,
with scalar values in one ``array('d')`` and the keys interned while the
key set is unchanged.  A batch passed again by identity -- the simulator's
apply plan replaying a solution -- reuses the previous batch's keys and
values, so a replayed batch costs O(1), not O(series).  A series is built
from the log the first time it is read, cached, and extended from the
batches it has not yet seen on every later read; series nobody reads (the
per-node telemetry of a long fast-forwarded run) are never built.
"""

from __future__ import annotations

from array import array
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
        super()._extend(timestamps, value)

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


class _KeySet:
    """One batch's ``(entity, metric)`` keys in order, and each key's position."""

    __slots__ = ("keys", "positions")

    def __init__(self, keys: tuple[tuple[str, str], ...]) -> None:
        self.keys = keys
        self.positions = {key: index for index, key in enumerate(keys)}
        if len(self.positions) != len(keys):
            raise ValueError("a batch must name each (entity, metric) key once")


class _SegmentLog:
    """One kind's append-only batch log, stored as flat columns, and the
    series read from it.

    Batch ``i`` covers ``times[bounds[i]:bounds[i + 1]]``; key ``k`` of
    ``keysets[i]`` has the value ``values[offsets[i] + position of k]``.  A
    fresh batch appends its values to ``values`` (built by ``column``:
    ``array('d')`` for scalars); a replayed batch repeats the previous
    batch's keyset and offset.  ``views`` holds every live key in
    first-recorded (or first-read) order, mapped to ``None`` until the key
    is read, then to its cached ``[series, next batch index]``.  ``floors``
    maps a dropped entity to the first batch its series may be built from.
    """

    __slots__ = (
        "kind",
        "column",
        "values",
        "times",
        "bounds",
        "keysets",
        "offsets",
        "views",
        "floors",
        "keyset",
        "last_samples",
    )

    def __init__(self, kind: type, column) -> None:
        self.kind = kind
        self.column = column
        self.values = column(())
        self.times: list[float] = []
        self.bounds = array("q", [0])
        self.keysets: list[_KeySet] = []
        self.offsets = array("q")
        self.views: dict[tuple[str, str], list | None] = {}
        self.floors: dict[str, int] = {}
        #: The keyset the next fresh batch is interned against.
        self.keyset: _KeySet | None = None
        self.last_samples: tuple | None = None

    def __len__(self) -> int:
        """Number of batches logged."""
        return len(self.keysets)

    def append(self, timestamps, samples) -> None:
        """Log one batch: every ``(entity, metric, value)`` at each timestamp.

        A tuple batch passed again by identity (a tuple cannot have changed
        since) reuses the previous batch's keys and values; any other batch
        is split into its keys and values, and its keys are interned against
        the previous batch's.  Timestamps must not go back past any earlier
        batch of this kind.  A rejected batch leaves the log unchanged.
        """
        if not timestamps:
            return
        times = self.times
        if times and timestamps[0] < times[-1]:
            raise ValueError(
                f"samples must be appended in time order: {timestamps[0]} < {times[-1]}"
            )
        if type(samples) is tuple and samples is self.last_samples:
            keyset, offset = self.keysets[-1], self.offsets[-1]
        else:
            keys = []
            values = []
            for entity, metric, value in samples:
                keys.append((entity, metric))
                values.append(value)
            values = self.column(values)
            keys = tuple(keys)
            keyset = self.keyset
            if keyset is None or keyset.keys != keys:
                keyset = self.keyset = _KeySet(keys)
                views = self.views
                for key in keys:
                    if key not in views:
                        views[key] = None
            offset = len(self.values)
            self.values.extend(values)
            self.last_samples = samples
        times.extend(timestamps)
        self.bounds.append(len(times))
        self.keysets.append(keyset)
        self.offsets.append(offset)

    def view(self, key: tuple[str, str]):
        """The series of ``key`` (registered if new), brought up to date."""
        view = self.views.get(key)
        if view is None:
            series = self.kind(name=f"{key[0]}.{key[1]}")
            view = self.views[key] = [series, self.floors.get(key[0], 0)]
        series, start = view
        stop = len(self.keysets)
        if start < stop:
            extend = series._extend
            times, bounds, values = self.times, self.bounds, self.values
            keysets, offsets = self.keysets, self.offsets
            keyset = position = None
            for index in range(start, stop):
                if keysets[index] is not keyset:
                    keyset = keysets[index]
                    position = keyset.positions.get(key)
                if position is not None:
                    span = times[bounds[index] : bounds[index + 1]]
                    extend(span, values[offsets[index] + position])
            view[1] = stop
        return series

    def drop(self, entity: str) -> None:
        """Forget ``entity``: its series restart empty after this point."""
        for key in [key for key in self.views if key[0] == entity]:
            del self.views[key]
        self.floors[entity] = len(self.keysets)
        # A later batch naming the entity again must re-register its keys.
        self.keyset = self.last_samples = None


def _float_column(values) -> array:
    """Scalar values, stored as one float column."""
    return array("d", values)


class MetricsRegistry:
    """Groups metric series by entity and metric name."""

    def __init__(self) -> None:
        self._scalar_log = _SegmentLog(MetricSeries, _float_column)
        self._distribution_log = _SegmentLog(DistributionSeries, list)

    def series(self, entity: str, metric: str) -> MetricSeries:
        """Return (creating if needed) the series for ``entity``/``metric``."""
        return self._scalar_log.view((entity, metric))

    def record_many(
        self, timestamp: float, samples: Iterable[tuple[str, str, float]]
    ) -> None:
        """Record many ``(entity, metric, value)`` samples at one timestamp."""
        self._scalar_log.append((timestamp,), samples)

    def record_many_repeated(
        self,
        timestamps: list[float],
        samples: Iterable[tuple[str, str, float]],
    ) -> None:
        """Record the same ``(entity, metric, value)`` batch at many times.

        Backbone of the simulator's apply path: a quiescent stretch emits
        identical per-tick values, so each series reads ``timestamps`` (all
        of them, in order) with its value repeated -- exactly the samples
        ``len(timestamps)`` :meth:`record_many` calls would have produced,
        logged as one entry.
        """
        self._scalar_log.append(timestamps, samples)

    def record_distributions(
        self, timestamp: float, samples: Iterable[tuple[str, str, object]]
    ) -> None:
        """Record many ``(entity, metric, summary)`` samples at one timestamp."""
        self._distribution_log.append((timestamp,), samples)

    def record_distributions_repeated(
        self,
        timestamps: list[float],
        samples: Iterable[tuple[str, str, object]],
    ) -> None:
        """Record the same ``(entity, metric, summary)`` batch at many times.

        The *same* summary object is kept for every timestamp (references,
        not copies), so a window merge over the span is bit-identical to
        merging the per-tick summaries ``len(timestamps)`` individual ticks
        would have recorded.
        """
        self._distribution_log.append(timestamps, samples)

    def distribution(self, entity: str, metric: str) -> DistributionSeries | None:
        """The distribution series for a key, or ``None`` when never recorded."""
        key = (entity, metric)
        if key not in self._distribution_log.views:
            return None
        return self._distribution_log.view(key)

    def latest(self, entity: str, metric: str, default: float = 0.0) -> float:
        """Latest value for ``entity``/``metric`` (``default`` when absent)."""
        key = (entity, metric)
        if key not in self._scalar_log.views:
            return default
        return self._scalar_log.view(key).latest(default)

    def drop_entity(self, entity: str) -> None:
        """Remove all series belonging to ``entity`` (e.g. a removed node)."""
        self._scalar_log.drop(entity)
        self._distribution_log.drop(entity)

    def items(self) -> list[tuple[tuple[str, str], MetricSeries]]:
        """All ``((entity, metric), series)`` pairs, in creation order."""
        log = self._scalar_log
        return [(key, log.view(key)) for key in list(log.views)]

    def distributions(self) -> list[tuple[tuple[str, str], DistributionSeries]]:
        """All ``((entity, metric), distribution series)`` pairs, in creation order."""
        log = self._distribution_log
        return [(key, log.view(key)) for key in list(log.views)]
