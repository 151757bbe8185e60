"""Output computation (Stage D -- Algorithm 3).

StageD determines the best way to reach the target configuration: the one
that minimises node reconfigurations and partition moves.  The optimised
distribution produced by Stage C is matched against the current cluster
distribution with a best-effort set-intersection heuristic: for every target
(profile, partition set) pair, prefer the physical node that already holds
the most similar set of partitions and, on ties, one that already runs the
target profile (so it does not need a restart).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class TargetSlot:
    """One slot of the optimised distribution: a profile and a partition set."""

    profile: str
    partitions: frozenset[str]


@dataclass
class NodeTarget:
    """What one physical node should become."""

    node: str
    profile: str
    partitions: set[str] = field(default_factory=set)
    needs_restart: bool = False

    @property
    def partition_list(self) -> list[str]:
        """Sorted partition ids (deterministic ordering for the actuator)."""
        return sorted(self.partitions)


def _similarity(current: set[str], target: frozenset[str]) -> int:
    """Number of partitions the node would keep if given this slot."""
    return len(current & target)


def compute_output(
    current_state: dict[str, set[str]],
    current_profiles: dict[str, str],
    optimal_state: list[TargetSlot],
    first_time: bool = False,
    new_nodes: list[str] | None = None,
) -> list[NodeTarget]:
    """Match the optimised distribution onto the physical nodes (Algorithm 3).

    Args:
        current_state: node name -> set of partitions it currently serves.
        current_profiles: node name -> profile it currently runs.
        optimal_state: the target (profile, partition set) slots from Stage C.
        first_time: when True the whole optimal state is passed through as-is
            (the InitialReconfiguration); nodes are paired with slots in
            order.
        new_nodes: names of nodes that are being added and therefore have no
            current partitions; they receive the leftover slots.

    Returns one :class:`NodeTarget` per (node, slot) pair.  Nodes that do not
    receive a slot (cluster shrink) are not listed; the caller decides their
    fate.
    """
    new_nodes = list(new_nodes or [])
    slots = list(optimal_state)
    targets: list[NodeTarget] = []

    if first_time:
        nodes = list(current_state) + [n for n in new_nodes if n not in current_state]
        for node, slot in zip(nodes, slots):
            targets.append(
                NodeTarget(
                    node=node,
                    profile=slot.profile,
                    partitions=set(slot.partitions),
                    needs_restart=current_profiles.get(node) != slot.profile,
                )
            )
        return targets

    remaining = list(slots)
    unmatched_nodes = [node for node in current_state if node not in new_nodes]
    # Greedy best-effort matching: repeatedly pick the (node, slot) pair with
    # the largest partition-set intersection, preferring pairs that keep the
    # node's current profile.
    while remaining and unmatched_nodes:
        best: tuple[int, int, str, TargetSlot] | None = None
        for node in unmatched_nodes:
            held = current_state[node]
            for slot in remaining:
                overlap = _similarity(held, slot.partitions)
                same_profile = 1 if current_profiles.get(node) == slot.profile else 0
                key = (overlap, same_profile)
                if best is None or key > (best[0], best[1]):
                    best = (overlap, same_profile, node, slot)
        assert best is not None
        _, same_profile, node, slot = best
        targets.append(
            NodeTarget(
                node=node,
                profile=slot.profile,
                partitions=set(slot.partitions),
                needs_restart=not bool(same_profile),
            )
        )
        unmatched_nodes.remove(node)
        remaining.remove(slot)

    # Newly added nodes (and any still-unmatched existing nodes) take the
    # leftover slots.
    spare_nodes = new_nodes + unmatched_nodes
    for node, slot in zip(spare_nodes, remaining):
        targets.append(
            NodeTarget(
                node=node,
                profile=slot.profile,
                partitions=set(slot.partitions),
                needs_restart=current_profiles.get(node) != slot.profile,
            )
        )
    return targets


def plan_moves(
    current_state: dict[str, set[str]], targets: list[NodeTarget]
) -> list[tuple[str, str]]:
    """List of (partition, destination node) moves implied by ``targets``."""
    location = {
        partition: node
        for node, partitions in current_state.items()
        for partition in partitions
    }
    moves: list[tuple[str, str]] = []
    for target in targets:
        for partition in target.partition_list:
            if location.get(partition) != target.node:
                moves.append((partition, target.node))
    return moves
