"""Hardware budgets for simulated nodes.

The paper's testbed nodes are Intel i3 machines at 3.1 GHz with 4 GB of RAM,
a single 7200 rpm SATA disk and a switched gigabit network (Section 3.2).
:class:`HardwareSpec` captures those capacities as per-second budgets that
the performance model spends when serving operations.
"""

from __future__ import annotations

from dataclasses import dataclass

MB = 1024 * 1024
GB = 1024 * MB


@dataclass(frozen=True)
class HardwareSpec:
    """Per-second resource budgets of a node.

    Attributes:
        cpu_millis_per_second: CPU service-time budget.  A node with 4
            hardware threads can spend roughly 4000 ms of CPU time per second.
        disk_iops: random I/O operations per second the disk sustains.
        disk_mb_per_second: sequential disk bandwidth in MB/s.
        network_mb_per_second: network bandwidth in MB/s.
        memory_bytes: total physical memory.
        heap_bytes: Java heap granted to the RegionServer (3 GB in the paper).
    """

    cpu_millis_per_second: float = 4000.0
    disk_iops: float = 160.0
    disk_mb_per_second: float = 110.0
    network_mb_per_second: float = 110.0
    memory_bytes: int = 4 * GB
    heap_bytes: int = 3 * GB

    def validate(self) -> None:
        """Raise ``ValueError`` if any budget is non-positive."""
        for name in (
            "cpu_millis_per_second",
            "disk_iops",
            "disk_mb_per_second",
            "network_mb_per_second",
            "memory_bytes",
            "heap_bytes",
        ):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        if self.heap_bytes > self.memory_bytes:
            raise ValueError("heap cannot exceed physical memory")


#: The node type used throughout the paper's evaluation.
PAPER_NODE = HardwareSpec()

#: The OpenStack VMs with 3 GB of RAM of the elasticity experiment
#: (Section 6.4): weaker than the physical nodes of Section 3 (fewer vCPUs,
#: smaller heap).  Scenarios default to it, so reduced-scale scenarios
#: still saturate a few nodes.
ELASTICITY_VM = HardwareSpec(
    cpu_millis_per_second=2000.0,
    disk_iops=140.0,
    disk_mb_per_second=90.0,
    network_mb_per_second=110.0,
    memory_bytes=3 * GB,
    heap_bytes=int(2.2 * GB),
)

#: A larger node type, used by tests exercising heterogeneous hardware.
LARGE_NODE = HardwareSpec(
    cpu_millis_per_second=8000.0,
    disk_iops=320.0,
    disk_mb_per_second=220.0,
    network_mb_per_second=110.0,
    memory_bytes=8 * GB,
    heap_bytes=6 * GB,
)
