"""The Decision Maker component (paper Section 4.2).

Works in four stages:

* **Stage A** -- determine the current state of the cluster from the
  monitor's snapshot: is every node's load within the configured thresholds?
* **Stage B** -- Algorithm 1: decide how many nodes to add (quadratically) or
  remove (linearly); the very first sub-optimal round triggers the
  InitialReconfiguration instead.
* **Stage C** -- the Distribution Algorithm: classify partitions by access
  pattern, size the node groups proportionally, and LPT-assign partitions to
  node slots inside each group.
* **Stage D** -- Algorithm 3: match the optimised distribution onto the
  physical nodes so as to minimise partition moves and node restarts.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.core.assignment import assign_partitions
from repro.core.classification import classify_partitions
from repro.core.grouping import nodes_per_group
from repro.core.output import NodeTarget, TargetSlot, compute_output, plan_moves
from repro.core.parameters import MeTParameters
from repro.core.sizing import SizingAlgorithm
from repro.monitoring.collector import ClusterSnapshot, PartitionSample


def distribution(
    partitions: Iterable[PartitionSample], cluster_size: int, threshold: float = 0.60
) -> list[TargetSlot]:
    """Stage C: classification + grouping + assignment for ``cluster_size`` nodes.

    Returns one slot per node (an empty list when there are no partitions).
    When the cluster has fewer nodes than non-empty groups, the groups left
    without a node hand their partitions to the kept group with the least
    request volume, so every partition lands in exactly one slot.
    """
    groups = classify_partitions(partitions, threshold)
    if not groups:
        return []
    allocation = nodes_per_group(groups, cluster_size)
    dropped = [p for pattern in groups if pattern not in allocation for p in groups[pattern]]
    if dropped:
        smallest = min(
            allocation, key=lambda pattern: sum(p.total_requests for p in groups[pattern])
        )
        groups[smallest] = groups[smallest] + dropped
    slots: list[TargetSlot] = []
    for pattern, node_count in allocation.items():
        slot_names = [f"{pattern.value}-slot-{i}" for i in range(node_count)]
        per_slot = assign_partitions(groups[pattern], slot_names)
        slots.extend(
            TargetSlot(profile=pattern.value, partitions=frozenset(per_slot[name]))
            for name in slot_names
        )
    return slots


@dataclass
class ClusterHealth:
    """Stage A verdict about the cluster."""

    acceptable: bool
    overloaded_fraction: float
    underloaded: bool


@dataclass
class ReconfigurationPlan:
    """Everything the Actuator needs to bring the cluster to the new state."""

    timestamp: float
    initial: bool
    targets: list[NodeTarget] = field(default_factory=list)
    new_nodes: list[str] = field(default_factory=list)
    nodes_to_remove: list[str] = field(default_factory=list)
    moves: list[tuple[str, str]] = field(default_factory=list)

    def is_noop(self) -> bool:
        """Whether applying the plan would change nothing."""
        return (
            not self.new_nodes
            and not self.nodes_to_remove
            and not self.moves
            and not any(target.needs_restart for target in self.targets)
        )

    @property
    def restarts(self) -> int:
        """Number of node restarts the plan implies."""
        return sum(1 for target in self.targets if target.needs_restart)


class DecisionMaker:
    """Implements Stages A-D over monitor snapshots."""

    #: Placeholder prefix for nodes that are not provisioned yet.
    NEW_NODE_PREFIX = "<new-node-"

    def __init__(self, parameters: MeTParameters | None = None) -> None:
        self.parameters = (parameters or MeTParameters()).validate()
        self.sizing = SizingAlgorithm(self.parameters.suboptimal_nodes_threshold)

    # ------------------------------------------------------------------ #
    # Stage A
    # ------------------------------------------------------------------ #
    def stage_a(self, snapshot: ClusterSnapshot) -> ClusterHealth:
        """Determine whether the cluster load is acceptable."""
        online = list(snapshot.nodes.values())
        if not online:
            return ClusterHealth(acceptable=True, overloaded_fraction=0.0, underloaded=False)
        overloaded = [n.name for n in online if n.load > self.parameters.overload_threshold]
        underloaded = [n.name for n in online if n.load < self.parameters.underload_threshold]
        overloaded_fraction = len(overloaded) / len(online)
        # Unlike tiramola, MeT does not wait for every node to be idle before
        # shrinking: a configurable fraction of underloaded nodes (with none
        # overloaded) is enough to release a node (Section 6.4).
        cluster_underloaded = (
            not overloaded
            and len(underloaded) / len(online) > self.parameters.underload_fraction
            and len(online) > self.parameters.min_nodes
        )
        acceptable = not overloaded and not cluster_underloaded
        return ClusterHealth(
            acceptable=acceptable,
            overloaded_fraction=overloaded_fraction,
            underloaded=cluster_underloaded,
        )

    # ------------------------------------------------------------------ #
    # full decision round
    # ------------------------------------------------------------------ #
    def decide(self, snapshot: ClusterSnapshot) -> ReconfigurationPlan | None:
        """Run Stages A-D; returns None when the cluster is healthy."""
        health = self.stage_a(snapshot)
        if health.acceptable:
            self.sizing.reset_growth()
            return None

        first_time = self.sizing.first_time
        sizing = self.sizing.decide(health.overloaded_fraction, remove=health.underloaded)

        online_nodes = list(snapshot.nodes)
        current_size = len(online_nodes)
        new_size = current_size + sizing.delta
        new_size = max(self.parameters.min_nodes, min(self.parameters.max_nodes, new_size))
        delta = new_size - current_size

        slots = distribution(
            snapshot.partitions.values(), new_size, self.parameters.classification_threshold
        )
        if not slots:
            return None

        current_state = {
            name: {p.partition_id for p in snapshot.partitions_on(name)}
            for name in online_nodes
        }
        current_profiles = {
            name: snapshot.nodes[name].profile for name in online_nodes
        }
        new_nodes = [f"{self.NEW_NODE_PREFIX}{i}>" for i in range(max(0, delta))]
        for placeholder in new_nodes:
            current_profiles[placeholder] = "unprovisioned"

        targets = compute_output(
            current_state=current_state,
            current_profiles=current_profiles,
            optimal_state=slots,
            first_time=first_time or sizing.initial_reconfiguration,
            new_nodes=new_nodes,
        )
        assigned_nodes = {target.node for target in targets}
        nodes_to_remove = [name for name in online_nodes if name not in assigned_nodes]
        moves = plan_moves(current_state, targets)
        return ReconfigurationPlan(
            timestamp=snapshot.timestamp,
            initial=first_time or sizing.initial_reconfiguration,
            targets=targets,
            new_nodes=[t.node for t in targets if t.node.startswith(self.NEW_NODE_PREFIX)],
            nodes_to_remove=nodes_to_remove,
            moves=moves,
        )
