"""The manual placement and configuration strategies of Section 3.3.

* **Random-Homogeneous** -- HBase's out-of-the-box behaviour: the random
  balancer evens out region *counts* only, and every node runs the same
  configuration (60/40 split of the allowed heap share between block cache
  and memstore).
* **Manual-Homogeneous** -- hand-balanced data placement (hot partitions
  spread apart so the per-node request counts are even), still with
  homogeneous configurations.  The paper found it by exhaustive search; here
  it is computed with the same LPT heuristic MeT uses, which yields the
  balanced placement the search converges to.
* **Manual-Heterogeneous** -- partitions clustered by access pattern, node
  groups sized proportionally to the partitions they hold, and each node
  configured with the Table 1 profile of its group.

:data:`PLACEMENTS` names the layouts a
:class:`~repro.scenarios.spec.ScenarioSpec` can declare its run to start
from.  ``partition-per-node`` is the Section 6.3 TPC-C layout:
one warehouse-aligned partition per node, every node on the hand-tuned
homogeneous TPC-C configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.assignment import assign_partitions
from repro.core.classification import (
    AccessPattern,
    ClassifiedPartition,
    classify_partition,
)
from repro.core.grouping import max_partitions_per_node, nodes_per_group
from repro.core.profiles import profile_for
from repro.hbase.balancer import RandomBalancer
from repro.hbase.config import DEFAULT_HOMOGENEOUS, TPCC_HOMOGENEOUS, RegionServerConfig


@dataclass(frozen=True)
class PartitionWorkload:
    """Expected request mix of one data partition, used for manual placement."""

    partition_id: str
    reads: float = 0.0
    writes: float = 0.0
    scans: float = 0.0
    size_bytes: float = 0.0

    @property
    def total_requests(self) -> float:
        """Total expected requests."""
        return self.reads + self.writes + self.scans

    def classified(self, threshold: float = 0.60) -> ClassifiedPartition:
        """Classify this partition by its expected access pattern."""
        pattern = classify_partition(self.reads, self.writes, self.scans, threshold)
        return ClassifiedPartition(
            partition_id=self.partition_id,
            pattern=pattern,
            requests=self.total_requests,
            size_bytes=self.size_bytes,
        )


@dataclass
class PlacementPlan:
    """A complete cluster layout: per-node configuration and partition sets."""

    name: str
    node_configs: dict[str, RegionServerConfig] = field(default_factory=dict)
    node_profiles: dict[str, str] = field(default_factory=dict)
    assignment: dict[str, str] = field(default_factory=dict)

    def partitions_on(self, node: str) -> list[str]:
        """Partitions placed on ``node``."""
        return sorted(p for p, n in self.assignment.items() if n == node)

    def validate(self, partitions: list[str], nodes: list[str]) -> None:
        """Check the plan covers every partition and only known nodes."""
        missing = set(partitions) - set(self.assignment)
        if missing:
            raise ValueError(f"plan {self.name!r} leaves partitions unassigned: {sorted(missing)}")
        unknown = set(self.assignment.values()) - set(nodes)
        if unknown:
            raise ValueError(f"plan {self.name!r} uses unknown nodes: {sorted(unknown)}")


def random_homogeneous(
    partitions: list[PartitionWorkload],
    nodes: list[str],
    seed: int = 0,
    config: RegionServerConfig | None = None,
) -> PlacementPlan:
    """The default HBase layout: random placement, identical configurations."""
    balancer = RandomBalancer(seed=seed)
    assignment = balancer.assign([p.partition_id for p in partitions], list(nodes))
    node_config = (config or DEFAULT_HOMOGENEOUS).validate()
    return PlacementPlan(
        name="random-homogeneous",
        node_configs={node: node_config for node in nodes},
        node_profiles={node: "default" for node in nodes},
        assignment=assignment,
    )


def manual_homogeneous(
    partitions: list[PartitionWorkload],
    nodes: list[str],
    config: RegionServerConfig | None = None,
) -> PlacementPlan:
    """Hand-balanced placement: even request load, homogeneous configuration.

    Mirrors the placement the paper found by exhaustive search: hot data
    partitions are dispersed as much as possible (a workload's partitions are
    spread over distinct nodes) while keeping the per-node request counts
    even.  Partitions are placed workload by workload (heaviest first); each
    partition goes to the node that currently hosts the fewest partitions of
    the same workload, breaking ties by total request load.
    """
    if not nodes:
        raise ValueError("cannot place partitions on an empty node list")
    cap = max_partitions_per_node(len(partitions), len(nodes))
    prefix = {p.partition_id: p.partition_id.split(":", 1)[0] for p in partitions}
    by_workload: dict[str, list[PartitionWorkload]] = {}
    for partition in partitions:
        by_workload.setdefault(prefix[partition.partition_id], []).append(partition)
    workload_order = sorted(
        by_workload,
        key=lambda w: -sum(p.total_requests for p in by_workload[w]),
    )
    load = {node: 0.0 for node in nodes}
    counts = {node: 0 for node in nodes}
    per_workload_counts = {node: {w: 0 for w in by_workload} for node in nodes}
    assignment: dict[str, str] = {}
    for workload in workload_order:
        members = sorted(by_workload[workload], key=lambda p: -p.total_requests)
        for partition in members:
            candidates = [n for n in nodes if counts[n] < cap] or list(nodes)
            target = min(
                candidates,
                key=lambda n: (per_workload_counts[n][workload], load[n], n),
            )
            assignment[partition.partition_id] = target
            load[target] += partition.total_requests
            counts[target] += 1
            per_workload_counts[target][workload] += 1
    node_config = (config or DEFAULT_HOMOGENEOUS).validate()
    return PlacementPlan(
        name="manual-homogeneous",
        node_configs={node: node_config for node in nodes},
        node_profiles={node: "default" for node in nodes},
        assignment=assignment,
    )


def manual_heterogeneous(
    partitions: list[PartitionWorkload],
    nodes: list[str],
    classification_threshold: float = 0.60,
) -> PlacementPlan:
    """Workload-aware placement with per-group node configurations (Table 1)."""
    classified = [p.classified(classification_threshold) for p in partitions]
    groups: dict[AccessPattern, list[ClassifiedPartition]] = {}
    for partition in classified:
        groups.setdefault(partition.pattern, []).append(partition)
    allocation = nodes_per_group(groups, len(nodes))

    plan = PlacementPlan(name="manual-heterogeneous")
    remaining_nodes = list(nodes)
    for pattern, node_count in allocation.items():
        group_nodes = remaining_nodes[:node_count]
        remaining_nodes = remaining_nodes[node_count:]
        members = groups[pattern]
        cap = max_partitions_per_node(len(members), len(group_nodes))
        per_node = assign_partitions(members, group_nodes, max_per_node=cap)
        profile = profile_for(pattern.value)
        for node in group_nodes:
            plan.node_configs[node] = profile.config
            plan.node_profiles[node] = profile.name
            for partition in per_node.get(node, []):
                plan.assignment[partition] = node
    # Any nodes left over (more nodes than groups needed) stay homogeneous.
    for node in remaining_nodes:
        plan.node_configs[node] = DEFAULT_HOMOGENEOUS
        plan.node_profiles[node] = "default"
    return plan


def partition_per_node(partitions: list[PartitionWorkload], nodes: list[str]) -> PlacementPlan:
    """Partition ``i`` on node ``i``, every node on ``TPCC_HOMOGENEOUS``."""
    return PlacementPlan(
        name="partition-per-node",
        node_configs={node: TPCC_HOMOGENEOUS for node in nodes},
        node_profiles={node: "default" for node in nodes},
        assignment={
            partition.partition_id: node for partition, node in zip(partitions, nodes)
        },
    )


#: The named initial layouts: name -> ``(partitions, nodes, seed) -> plan``
#: (``seed`` drives the random balancer of ``random-homogeneous`` only).
PLACEMENTS = {
    "random-homogeneous": lambda partitions, nodes, seed: random_homogeneous(
        partitions, nodes, seed=seed
    ),
    "manual-homogeneous": lambda partitions, nodes, seed: manual_homogeneous(partitions, nodes),
    "manual-heterogeneous": lambda partitions, nodes, seed: manual_heterogeneous(
        partitions, nodes
    ),
    "partition-per-node": lambda partitions, nodes, seed: partition_per_node(partitions, nodes),
}
