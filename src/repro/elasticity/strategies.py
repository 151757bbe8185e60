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
  configured with the Table 1 profile of its group.  This is the layout
  MeT's distribution algorithm computes (Section 4.2.3), so it *is* MeT's
  Stage C (:func:`repro.core.decision.distribution`) run on the tenants'
  expected request counts, slot ``i`` placed on node ``i``.

:data:`PLACEMENTS` names the layouts a
:class:`~repro.scenarios.spec.ScenarioSpec` can declare its run to start
from.  ``partition-per-node`` is the Section 6.3 TPC-C layout:
one warehouse-aligned partition per node, every node on the hand-tuned
homogeneous TPC-C configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.decision import distribution
from repro.core.grouping import max_partitions_per_node
from repro.core.parameters import MeTParameters
from repro.core.profiles import profile_for
from repro.hbase.balancer import RandomBalancer
from repro.hbase.config import DEFAULT_HOMOGENEOUS, TPCC_HOMOGENEOUS, RegionServerConfig
from repro.monitoring.collector import PartitionSample


@dataclass
class PlacementPlan:
    """A complete cluster layout: per-node configuration and partition sets."""

    name: str
    node_configs: dict[str, RegionServerConfig] = field(default_factory=dict)
    node_profiles: dict[str, str] = field(default_factory=dict)
    assignment: dict[str, str] = field(default_factory=dict)

    def validate(self, partitions: list[str], nodes: list[str]) -> None:
        """Check the plan covers every partition and only known nodes."""
        missing = set(partitions) - set(self.assignment)
        if missing:
            raise ValueError(f"plan {self.name!r} leaves partitions unassigned: {sorted(missing)}")
        unknown = set(self.assignment.values()) - set(nodes)
        if unknown:
            raise ValueError(f"plan {self.name!r} uses unknown nodes: {sorted(unknown)}")


def random_homogeneous(
    partitions: list[PartitionSample],
    nodes: list[str],
    seed: int = 0,
) -> PlacementPlan:
    """The default HBase layout: random placement, identical configurations."""
    balancer = RandomBalancer(seed=seed)
    assignment = balancer.assign([p.partition_id for p in partitions], list(nodes))
    return PlacementPlan(
        name="random-homogeneous",
        node_configs={node: DEFAULT_HOMOGENEOUS for node in nodes},
        node_profiles={node: "default" for node in nodes},
        assignment=assignment,
    )


def manual_homogeneous(
    partitions: list[PartitionSample],
    nodes: list[str],
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
    by_workload: dict[str, list[PartitionSample]] = {}
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
    return PlacementPlan(
        name="manual-homogeneous",
        node_configs={node: DEFAULT_HOMOGENEOUS for node in nodes},
        node_profiles={node: "default" for node in nodes},
        assignment=assignment,
    )


def manual_heterogeneous(
    partitions: list[PartitionSample],
    nodes: list[str],
) -> PlacementPlan:
    """Workload-aware placement with per-group node configurations (Table 1).

    MeT's Stage C over ``len(nodes)`` nodes, slot ``i`` on ``nodes[i]``;
    nodes beyond the slots (only when there are no partitions) stay
    homogeneous.
    """
    slots = distribution(partitions, len(nodes), MeTParameters.classification_threshold)
    plan = PlacementPlan(name="manual-heterogeneous")
    for node, slot in zip(nodes, slots):
        profile = profile_for(slot.profile)
        plan.node_configs[node] = profile.config
        plan.node_profiles[node] = profile.name
        for partition in sorted(slot.partitions):
            plan.assignment[partition] = node
    for node in nodes[len(slots):]:
        plan.node_configs[node] = DEFAULT_HOMOGENEOUS
        plan.node_profiles[node] = "default"
    return plan


def partition_per_node(partitions: list[PartitionSample], nodes: list[str]) -> PlacementPlan:
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
