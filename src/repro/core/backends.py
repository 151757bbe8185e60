"""The cluster backend that controllers drive.

:class:`SimulatorBackend` adapts the analytical
:class:`~repro.simulation.cluster.ClusterSimulator` to the
:class:`~repro.core.interfaces.ClusterBackend` protocol.  Every experiment,
scenario and campaign runs on it.  Adding a node is the IaaS request: the
simulator boots the new node offline for its boot delay, as a VM boots
before its RegionServer starts.
"""

from __future__ import annotations

import itertools

from repro.hbase.config import RegionServerConfig
from repro.monitoring.collector import PartitionSample
from repro.simulation.cluster import ClusterSimulator


class SimulatorBackend:
    """Adapter exposing a :class:`ClusterSimulator` as a cluster backend."""

    def __init__(self, simulator: ClusterSimulator) -> None:
        self.simulator = simulator
        self._counter = itertools.count(1)

    # ------------------------------------------------------------------ #
    # MetricsSource
    # ------------------------------------------------------------------ #
    def node_names(self) -> list[str]:
        return sorted(self.simulator.nodes)

    def online_node_names(self) -> list[str]:
        return sorted(node.name for node in self.simulator.online_nodes())

    def node_system_metrics(self, name: str) -> dict[str, float]:
        node = self.simulator.nodes[name]
        return {"cpu": node.cpu_utilization, "io_wait": node.io_wait}

    def node_locality(self, name: str) -> float:
        return self.simulator.node_locality_index(name)

    def node_profile(self, name: str) -> str:
        return self.simulator.nodes[name].profile_name

    def partition_stats(self) -> dict[str, PartitionSample]:
        return {
            region_id: PartitionSample(
                region_id, region.node, region.reads, region.writes, region.scans
            )
            for region_id, region in self.simulator.regions.items()
        }

    # ------------------------------------------------------------------ #
    # ClusterActions
    # ------------------------------------------------------------------ #
    def add_node(self, config: RegionServerConfig, profile_name: str) -> str:
        name = f"rs-auto-{next(self._counter)}"
        self.simulator.add_node(
            name=name, config=config, profile_name=profile_name, online=False
        )
        return name

    def remove_node(self, name: str) -> None:
        self.simulator.remove_node(name)

    def reconfigure_node(
        self, name: str, config: RegionServerConfig, profile_name: str
    ) -> list[str]:
        return self.simulator.reconfigure_node(
            name, config, profile_name=profile_name, drain=True
        )

    def move_partition(self, partition_id: str, node: str) -> None:
        self.simulator.move_region(partition_id, node)

    def major_compact(self, name: str) -> None:
        self.simulator.major_compact(name)

    def node_is_online(self, name: str) -> bool:
        node = self.simulator.nodes.get(name)
        return node is not None and node.online
