"""The cluster backend that controllers drive.

:class:`SimulatorBackend` adapts the analytical
:class:`~repro.simulation.cluster.ClusterSimulator` (optionally provisioning
VMs through the OpenStack-like provider) to the
:class:`~repro.core.interfaces.ClusterBackend` protocol.  Every experiment,
scenario and campaign runs on it.
"""

from __future__ import annotations

import itertools

from repro.hbase.config import RegionServerConfig
from repro.iaas.flavors import REGIONSERVER_FLAVOR
from repro.iaas.provider import OpenStackProvider
from repro.simulation.cluster import ClusterSimulator


class SimulatorBackend:
    """Adapter exposing a :class:`ClusterSimulator` as a cluster backend."""

    def __init__(
        self,
        simulator: ClusterSimulator,
        provider: OpenStackProvider | None = None,
    ) -> None:
        self.simulator = simulator
        self.provider = provider
        self._vm_ids: dict[str, str] = {}
        self._counter = itertools.count(1)

    @property
    def vm_ids(self) -> dict[str, str]:
        """Live node-name -> provider-instance-id mapping (fault injection
        shares it so crashing a provisioned node also fails its VM)."""
        return self._vm_ids

    # ------------------------------------------------------------------ #
    # MetricsSource
    # ------------------------------------------------------------------ #
    def node_names(self) -> list[str]:
        return sorted(self.simulator.nodes)

    def online_node_names(self) -> list[str]:
        return sorted(node.name for node in self.simulator.online_nodes())

    def node_system_metrics(self, name: str) -> dict[str, float]:
        node = self.simulator.nodes[name]
        return {
            "cpu": node.cpu_utilization,
            "io_wait": node.io_wait,
            "memory": node.memory_utilization,
        }

    def node_locality(self, name: str) -> float:
        return self.simulator.node_locality_index(name)

    def node_profile(self, name: str) -> str:
        return self.simulator.nodes[name].profile_name

    def partition_stats(self) -> dict[str, dict[str, float]]:
        stats: dict[str, dict[str, float]] = {}
        for region_id, region in self.simulator.regions.items():
            stats[region_id] = {
                "reads": region.reads,
                "writes": region.writes,
                "scans": region.scans,
                "size_bytes": region.size_bytes,
                "node": region.node,
            }
        return stats

    # ------------------------------------------------------------------ #
    # ClusterActions
    # ------------------------------------------------------------------ #
    def add_node(self, config: RegionServerConfig, profile_name: str) -> str:
        name = f"rs-auto-{next(self._counter)}"
        if self.provider is not None:
            vm = self.provider.launch(name, REGIONSERVER_FLAVOR)
            self._vm_ids[name] = vm.instance_id
        self.simulator.add_node(
            name=name, config=config, profile_name=profile_name, online=False
        )
        return name

    def remove_node(self, name: str) -> None:
        self.simulator.remove_node(name)
        vm_id = self._vm_ids.pop(name, None)
        if self.provider is not None and vm_id is not None:
            self.provider.terminate(vm_id)

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
