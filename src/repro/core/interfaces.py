"""Cluster backend interfaces.

MeT's Monitor and Actuator components interface with the NoSQL database and
with the IaaS (Figure 2 of the paper).  Controllers in this repository (MeT,
the tiramola baseline, the planner and the manual strategies) are written
against the :class:`ClusterBackend` typing protocol.  The one production
implementation is :class:`~repro.core.backends.SimulatorBackend`; tests
substitute fakes through the same protocol.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.hbase.config import RegionServerConfig
from repro.monitoring.collector import MetricsSource


@runtime_checkable
class ClusterActions(Protocol):
    """Actuation interface of a cluster backend.

    It includes the two reads the Actuator makes while it applies a plan:
    whether a target node still exists, and its locality index.
    """

    def node_names(self) -> list[str]:
        """Names of all nodes, including ones still booting."""

    def node_locality(self, name: str) -> float:
        """Locality index of a node in [0, 1]."""

    def add_node(self, config: RegionServerConfig, profile_name: str) -> str:
        """Provision a new node (may boot asynchronously); returns its name."""

    def remove_node(self, name: str) -> None:
        """Decommission a node; its partitions move to the remaining nodes."""

    def reconfigure_node(
        self, name: str, config: RegionServerConfig, profile_name: str
    ) -> list[str]:
        """Drain and restart a node with a new configuration.

        Returns the ids of the partitions that were drained away so the
        caller can move them back once the node is online again.
        """

    def move_partition(self, partition_id: str, node: str) -> None:
        """Reassign one partition to a node."""

    def major_compact(self, name: str) -> None:
        """Trigger a major compaction of the node's non-local partitions."""

    def node_is_online(self, name: str) -> bool:
        """Whether a node finished booting/restarting and serves requests."""


@runtime_checkable
class ClusterBackend(MetricsSource, ClusterActions, Protocol):
    """Observation plus actuation: what a controller needs from a cluster."""
