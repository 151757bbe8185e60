"""MeT configuration parameters (the paper's "properties file").

Section 5 lists the parameters MeT needs: the classification thresholds, the
``SubOptimalNodesThreshold`` (50% of the cluster in the paper's experiments),
the monitoring periodicity (30 s samples, decisions every 6 samples) and the
locality thresholds that trigger a major compaction after reconfiguration
(70% for write-profiled nodes, 90% for all others).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MeTParameters:
    """All tunables of the MeT framework.

    Attributes:
        monitor_period_seconds: the Monitor's sampling period (30 s).
        decision_samples: samples per Decision Maker invocation (6 -> 3 min).
        smoothing_alpha: exponential smoothing factor for observations.
        overload_threshold: a node is overloaded when its load (max of CPU
            and I/O wait) exceeds this value.
        underload_threshold: a node is underloaded below this value.
        underload_fraction: fraction of underloaded nodes (with none
            overloaded) above which MeT considers the cluster underutilised
            and releases one node; unlike tiramola, MeT does not wait for
            *every* node to be idle (Section 6.4).
        suboptimal_nodes_threshold: fraction of overloaded nodes above which
            MeT proceeds straight to adding nodes (Algorithm 1).
        classification_threshold: request-share threshold of the partition
            classifier (60% in the paper).
        write_locality_threshold: locality below which a write-profiled node
            is major-compacted after reconfiguration.
        read_locality_threshold: same for every other profile.
        min_nodes: never shrink the cluster below this size.
        max_nodes: never grow the cluster above this size.
        cooldown_seconds: minimum time between two actuator actions.
    """

    monitor_period_seconds: float = 30.0
    decision_samples: int = 6
    smoothing_alpha: float = 0.5
    overload_threshold: float = 0.85
    underload_threshold: float = 0.30
    underload_fraction: float = 0.25
    suboptimal_nodes_threshold: float = 0.50
    classification_threshold: float = 0.60
    write_locality_threshold: float = 0.70
    read_locality_threshold: float = 0.90
    min_nodes: int = 1
    max_nodes: int = 64
    cooldown_seconds: float = 60.0

    def validate(self) -> "MeTParameters":
        """Check parameter sanity and return ``self``."""
        if self.monitor_period_seconds <= 0:
            raise ValueError("monitor period must be positive")
        if self.decision_samples <= 0:
            raise ValueError("decision samples must be positive")
        if not 0.0 < self.smoothing_alpha <= 1.0:
            raise ValueError("smoothing alpha must be in (0, 1]")
        if not 0.0 < self.overload_threshold <= 1.0:
            raise ValueError("overload threshold must be in (0, 1]")
        if not 0.0 <= self.underload_threshold < self.overload_threshold:
            raise ValueError("underload threshold must be below the overload threshold")
        if not 0.0 < self.underload_fraction <= 1.0:
            raise ValueError("underload fraction must be in (0, 1]")
        if not 0.0 < self.suboptimal_nodes_threshold <= 1.0:
            raise ValueError("sub-optimal nodes threshold must be in (0, 1]")
        if not 0.0 < self.classification_threshold < 1.0:
            raise ValueError("classification threshold must be in (0, 1)")
        if not 0.0 <= self.write_locality_threshold <= 1.0:
            raise ValueError("write locality threshold must be in [0, 1]")
        if not 0.0 <= self.read_locality_threshold <= 1.0:
            raise ValueError("read locality threshold must be in [0, 1]")
        if self.min_nodes < 1:
            raise ValueError("min nodes must be at least 1")
        if self.max_nodes < self.min_nodes:
            raise ValueError("max nodes must be at least min nodes")
        return self

