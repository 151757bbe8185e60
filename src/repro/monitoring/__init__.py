"""Monitoring substrate: MeT's Monitor and its smoothing.

The paper's Monitor gathers CPU usage, memory usage and I/O wait through
Ganglia and HBase-specific metrics (read/write/scan request counts per node
and per Region, plus the locality index) through JMX, then applies
exponential smoothing before handing observations to the Decision Maker
(Sections 4.1 and 5).  :class:`MetricsCollector` reads both kinds from any
cluster backend: its ``sample()`` stands for the Ganglia poll and its
``snapshot()`` for the JMX read.
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
