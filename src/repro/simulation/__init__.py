"""Deterministic, time-stepped cluster simulation kernel.

This package is the substitute for the paper's physical HBase testbed.  It
models nodes with finite hardware budgets, data partitions with per-operation
request rates, and a closed-loop client population, and it exposes the same
observables MeT consumes (CPU utilisation, I/O wait, per-partition
read/write/scan counters, locality index).
"""

from repro.simulation.clock import SimulationClock
from repro.simulation.cluster import ClusterSimulator, SimulatedNode, SimulatedRegion
from repro.simulation.hardware import HardwareSpec
from repro.simulation.metrics import MetricSeries, MetricsRegistry
from repro.simulation.workload import WorkloadBinding

__all__ = [
    "SimulationClock",
    "ClusterSimulator",
    "SimulatedNode",
    "SimulatedRegion",
    "HardwareSpec",
    "MetricSeries",
    "MetricsRegistry",
    "WorkloadBinding",
]
