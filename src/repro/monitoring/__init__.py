"""Monitoring: MeT's Monitor and its smoothing.

The paper's Monitor gathers CPU usage, memory usage and I/O wait through
Ganglia and HBase-specific metrics (read/write/scan request counts per node
and per Region, plus the locality index) through JMX, then applies
exponential smoothing before handing observations to the Decision Maker
(Sections 4.1 and 5).  :class:`MetricsCollector` reads from any cluster
backend the part of both that a decision uses: its ``sample()`` stands for
the Ganglia poll (CPU usage and I/O wait) and its ``snapshot()`` for the JMX
read (per-partition request counts and each node's profile).
"""

from repro.monitoring.collector import ClusterSnapshot, MetricsCollector, NodeSample, PartitionSample
from repro.monitoring.smoothing import ExponentialSmoother

__all__ = [
    "ClusterSnapshot",
    "MetricsCollector",
    "NodeSample",
    "PartitionSample",
    "ExponentialSmoother",
]
