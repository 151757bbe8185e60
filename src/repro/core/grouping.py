"""Node grouping (Stage C, part 2).

Each access-pattern group is assigned a number of nodes proportional to the
number of partitions it contains (Section 4.2.3)::

    for every group g:  #partitions_in_g / total_partitions * total_nodes

Rounding is done with the largest-remainder method under two constraints:
every non-empty group gets at least one node and the group counts sum to the
total number of nodes available.
"""

from __future__ import annotations

from repro.core.classification import AccessPattern
from repro.monitoring.collector import PartitionSample


class GroupingError(ValueError):
    """Raised when a valid node grouping cannot be produced."""


def nodes_per_group(
    groups: dict[AccessPattern, list[PartitionSample]],
    total_nodes: int,
) -> dict[AccessPattern, int]:
    """Number of nodes to dedicate to each access-pattern group."""
    if total_nodes <= 0:
        raise GroupingError(f"total nodes must be positive, got {total_nodes!r}")
    non_empty = {pattern: members for pattern, members in groups.items() if members}
    if not non_empty:
        raise GroupingError("no partitions to group")
    if total_nodes < len(non_empty):
        return _merge_small_groups(non_empty, total_nodes)

    total_partitions = sum(len(members) for members in non_empty.values())
    exact = {
        pattern: len(members) / total_partitions * total_nodes
        for pattern, members in non_empty.items()
    }
    allocation = {pattern: max(1, int(share)) for pattern, share in exact.items()}
    # Largest remainder: distribute the leftover nodes to the groups whose
    # fractional share was most truncated.
    while sum(allocation.values()) < total_nodes:
        pattern = max(
            exact,
            key=lambda p: (exact[p] - allocation[p], len(non_empty[p])),
        )
        allocation[pattern] += 1
    while sum(allocation.values()) > total_nodes:
        candidates = [p for p, count in allocation.items() if count > 1]
        if not candidates:
            raise GroupingError(
                f"cannot fit {len(non_empty)} groups on {total_nodes} nodes"
            )
        pattern = min(candidates, key=lambda p: exact[p] - allocation[p])
        allocation[pattern] -= 1
    return allocation


def _merge_small_groups(
    groups: dict[AccessPattern, list[PartitionSample]],
    total_nodes: int,
) -> dict[AccessPattern, int]:
    """Fallback when the cluster has fewer nodes than access-pattern groups.

    Keeps the ``total_nodes`` groups with the most request volume, one node
    each, and leaves the other groups out of the allocation; Stage C's
    :func:`~repro.core.decision.distribution` then moves the left-out
    groups' partitions into the kept group with the least request volume.
    """
    by_volume = sorted(
        groups,
        key=lambda pattern: sum(p.total_requests for p in groups[pattern]),
        reverse=True,
    )
    return {pattern: 1 for pattern in by_volume[:total_nodes]}


def max_partitions_per_node(partition_count: int, node_count: int) -> int:
    """Cap on partitions per node used by the assignment algorithm.

    Estimated by dividing the number of partitions in the group by the number
    of nodes in the group (Section 4.2.3), rounded up.
    """
    if node_count <= 0:
        raise GroupingError(f"node count must be positive, got {node_count!r}")
    if partition_count <= 0:
        return 1
    return -(-partition_count // node_count)
