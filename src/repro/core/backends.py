"""Cluster backends: adapters that controllers drive.

* :class:`SimulatorBackend` adapts the analytical
  :class:`~repro.simulation.cluster.ClusterSimulator` (optionally provisioning
  VMs through the OpenStack-like provider) -- used by every experiment.
* :class:`HBaseBackend` adapts the functional
  :class:`~repro.hbase.cluster.MiniHBaseCluster` -- used by examples and
  integration tests that exercise real data paths.
"""

from __future__ import annotations

import itertools

from repro.hbase.cluster import MiniHBaseCluster
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
        self._profiles: dict[str, str] = {
            name: node.profile_name for name, node in simulator.nodes.items()
        }
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
        return self._profiles.get(name, self.simulator.nodes[name].profile_name)

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
        self._profiles[name] = profile_name
        return name

    def remove_node(self, name: str) -> None:
        self.simulator.remove_node(name)
        self._profiles.pop(name, None)
        vm_id = self._vm_ids.pop(name, None)
        if self.provider is not None and vm_id is not None:
            self.provider.terminate(vm_id)

    def reconfigure_node(
        self, name: str, config: RegionServerConfig, profile_name: str
    ) -> list[str]:
        drained = self.simulator.reconfigure_node(
            name, config, profile_name=profile_name, drain=True
        )
        self._profiles[name] = profile_name
        return drained

    def move_partition(self, partition_id: str, node: str) -> None:
        self.simulator.move_region(partition_id, node)

    def major_compact(self, name: str) -> None:
        self.simulator.major_compact(name)

    def node_is_online(self, name: str) -> bool:
        node = self.simulator.nodes.get(name)
        return node is not None and node.online


class HBaseBackend:
    """Adapter exposing a :class:`MiniHBaseCluster` as a cluster backend.

    The functional cluster has no hardware model, so system metrics are
    derived from request counters: a node's "CPU" is its share of the
    requests served since the previous sampling round, normalised by the
    busiest node.  A round starts when a node is asked a second time, so
    every node of one round shares one set of deltas.
    """

    def __init__(self, cluster: MiniHBaseCluster) -> None:
        self.cluster = cluster
        self._profiles: dict[str, str] = {
            server.name: server.profile_name for server in cluster.regionservers()
        }
        self._previous_totals: dict[str, int] = {}
        self._round_deltas: dict[str, int] = {}
        self._round_asked: set[str] = set()
        self._counter = itertools.count(1)

    # ------------------------------------------------------------------ #
    # MetricsSource
    # ------------------------------------------------------------------ #
    def node_names(self) -> list[str]:
        return sorted(server.name for server in self.cluster.regionservers())

    def online_node_names(self) -> list[str]:
        return sorted(
            server.name for server in self.cluster.regionservers() if server.online
        )

    def node_system_metrics(self, name: str) -> dict[str, float]:
        if not self._round_asked or name in self._round_asked:
            totals = {
                server.name: server.total_requests()
                for server in self.cluster.regionservers()
            }
            self._round_deltas = {
                node: max(0, total - self._previous_totals.get(node, 0))
                for node, total in totals.items()
            }
            self._previous_totals.update(totals)
            self._round_asked = set()
        self._round_asked.add(name)
        deltas = self._round_deltas
        busiest = max(deltas.values(), default=0)
        share = 0.0 if busiest == 0 else deltas.get(name, 0) / busiest
        server = self.cluster.regionserver(name)
        memory = 0.0
        if server.memstore_limit_bytes > 0:
            memory = min(1.0, server.memstore_used_bytes / server.memstore_limit_bytes)
        return {"cpu": share, "io_wait": share * (1.0 - server.cache_stats.hit_ratio), "memory": memory}

    def node_locality(self, name: str) -> float:
        return self.cluster.regionserver(name).locality_index()

    def node_profile(self, name: str) -> str:
        return self._profiles.get(name, self.cluster.regionserver(name).profile_name)

    def partition_stats(self) -> dict[str, dict[str, float]]:
        stats: dict[str, dict[str, float]] = {}
        for server in self.cluster.regionservers():
            for region in server.hosted_regions():
                counters = region.counters
                stats[region.name] = {
                    "reads": float(counters.reads),
                    "writes": float(counters.writes),
                    "scans": float(counters.scans),
                    "size_bytes": float(region.size_bytes),
                    "node": server.name,
                }
        return stats

    # ------------------------------------------------------------------ #
    # ClusterActions
    # ------------------------------------------------------------------ #
    def add_node(self, config: RegionServerConfig, profile_name: str) -> str:
        name = f"regionserver-auto-{next(self._counter)}"
        self.cluster.add_regionserver(name=name, config=config, profile_name=profile_name)
        self._profiles[name] = profile_name
        return name

    def remove_node(self, name: str) -> None:
        self.cluster.remove_regionserver(name)
        self._profiles.pop(name, None)

    def reconfigure_node(
        self, name: str, config: RegionServerConfig, profile_name: str
    ) -> list[str]:
        server = self.cluster.regionserver(name)
        drained = [region.name for region in server.hosted_regions()]
        self.cluster.restart_regionserver(name, config=config, profile_name=profile_name)
        self._profiles[name] = profile_name
        return drained

    def move_partition(self, partition_id: str, node: str) -> None:
        self.cluster.master.move_region(partition_id, node)

    def major_compact(self, name: str) -> None:
        self.cluster.major_compact_server(name)

    def node_is_online(self, name: str) -> bool:
        try:
            return self.cluster.regionserver(name).online
        except Exception:
            return False
