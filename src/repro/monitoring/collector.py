"""MeT's Monitor: metric collection and the Decision Maker's snapshot.

The paper's Monitor (Sections 4.1 and 5) reads two sources, and
:class:`MetricsCollector` maps each onto one call:

* :meth:`MetricsCollector.sample` is the Ganglia poll -- CPU usage and I/O
  wait of every online node, fed into exponential smoothers (Stage A);
* :meth:`MetricsCollector.snapshot` is the JMX read -- per-partition read,
  write and scan counters as deltas since the last actuator action (Stage
  C) and each online node's profile -- bundled with the smoothed system
  metrics into a :class:`ClusterSnapshot`.

The controller decides *when*: MeT samples every monitoring period (30 s in
the paper) and asks for a snapshot every ``decision_samples`` samples (6,
i.e. every 3 minutes).  Nothing is polled that no decision reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro.monitoring.smoothing import ExponentialSmoother


class MetricsSource(Protocol):
    """Observation interface any cluster backend must provide."""

    def online_node_names(self) -> list[str]:
        """Names of nodes currently serving requests."""

    def node_system_metrics(self, name: str) -> dict[str, float]:
        """System metrics for a node: ``cpu`` and ``io_wait`` in [0, 1]."""

    def node_profile(self, name: str) -> str:
        """Name of the configuration profile currently applied to a node."""

    def partition_stats(self) -> dict[str, "PartitionSample"]:
        """Per-partition statistics, one fresh :class:`PartitionSample` each.

        The samples carry the cumulative ``reads``, ``writes`` and ``scans``
        counters since the partition was created and its hosting ``node``
        (or None); the collector turns them into windowed counts by
        subtracting a baseline.
        """


@dataclass
class NodeSample:
    """Smoothed system metrics of one node."""

    name: str
    cpu: float
    io_wait: float
    profile: str

    @property
    def load(self) -> float:
        """Scalar load used by threshold checks (max of CPU and I/O wait)."""
        return max(self.cpu, self.io_wait)


@dataclass
class PartitionSample:
    """Request counts of one partition: the one per-partition request record.

    Cumulative in ``partition_stats``, over the monitoring window in a
    snapshot, expected (``node=None``) from a tenant's nominal rate.
    """

    partition_id: str
    node: str | None
    reads: float
    writes: float
    scans: float

    @property
    def total_requests(self) -> float:
        """Total requests in the window."""
        return self.reads + self.writes + self.scans


#: Baseline of a partition created after the last action: nothing counted yet.
_NO_REQUESTS = PartitionSample("", None, 0.0, 0.0, 0.0)


@dataclass
class ClusterSnapshot:
    """Everything the Decision Maker needs for one decision round.

    ``nodes`` holds the online nodes only; ``partitions`` every partition.
    """

    timestamp: float
    nodes: dict[str, NodeSample] = field(default_factory=dict)
    partitions: dict[str, PartitionSample] = field(default_factory=dict)

    def partitions_on(self, node_name: str) -> list[PartitionSample]:
        """Partitions hosted by ``node_name``."""
        return [p for p in self.partitions.values() if p.node == node_name]


class MetricsCollector:
    """Samples a :class:`MetricsSource` and produces smoothed snapshots."""

    def __init__(
        self,
        source: MetricsSource,
        decision_samples: int = 6,
        smoothing_alpha: float = 0.5,
    ) -> None:
        if decision_samples <= 0:
            raise ValueError("decision_samples must be positive")
        self.source = source
        self.decision_samples = decision_samples
        self.smoothing_alpha = smoothing_alpha
        self._smoothers: dict[tuple[str, str], ExponentialSmoother] = {}
        self._samples_since_decision = 0
        self._partition_baseline: dict[str, PartitionSample] = {}

    # ------------------------------------------------------------------ #
    # sampling
    # ------------------------------------------------------------------ #
    def sample(self) -> None:
        """Take one sample of every online node's system metrics."""
        self._samples_since_decision += 1
        for name in self.source.online_node_names():
            metrics = self.source.node_system_metrics(name)
            for metric, value in metrics.items():
                self._smoother(name, metric).observe(value)

    def _smoother(self, node: str, metric: str) -> ExponentialSmoother:
        key = (node, metric)
        if key not in self._smoothers:
            self._smoothers[key] = ExponentialSmoother(
                alpha=self.smoothing_alpha, window=self.decision_samples
            )
        return self._smoothers[key]

    # ------------------------------------------------------------------ #
    # decision snapshots
    # ------------------------------------------------------------------ #
    def decision_due(self) -> bool:
        """Whether enough samples accumulated for a Decision Maker round."""
        return self._samples_since_decision >= self.decision_samples

    def snapshot(self, now: float) -> ClusterSnapshot:
        """Build a snapshot from the smoothed observations."""
        nodes = {
            name: NodeSample(
                name=name,
                cpu=self._smoother(name, "cpu").value(),
                io_wait=self._smoother(name, "io_wait").value(),
                profile=self.source.node_profile(name),
            )
            for name in self.source.online_node_names()
        }
        partitions: dict[str, PartitionSample] = {}
        current = self.source.partition_stats()
        for partition_id, stats in current.items():
            baseline = self._partition_baseline.get(partition_id, _NO_REQUESTS)
            partitions[partition_id] = PartitionSample(
                partition_id=partition_id,
                node=stats.node,
                reads=max(0.0, stats.reads - baseline.reads),
                writes=max(0.0, stats.writes - baseline.writes),
                scans=max(0.0, stats.scans - baseline.scans),
            )
        self._samples_since_decision = 0
        return ClusterSnapshot(timestamp=now, nodes=nodes, partitions=partitions)

    # ------------------------------------------------------------------ #
    # post-action bookkeeping
    # ------------------------------------------------------------------ #
    def reset_after_action(self) -> None:
        """Discard observations taken before the last actuator action.

        The paper stores only the observations recorded after each actuator
        action so decisions are not polluted by the pre-action regime
        (Section 4.1); partition counters are also re-baselined.
        """
        for smoother in self._smoothers.values():
            smoother.reset()
        self._samples_since_decision = 0
        self._partition_baseline = self.source.partition_stats()
