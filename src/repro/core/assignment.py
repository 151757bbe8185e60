"""Partition-to-node assignment (Stage C, part 3 -- Algorithm 2).

The assignment balances the request load and the number of partitions per
node inside each group.  This is the makespan-minimisation / multiprocessor
scheduling problem; the paper uses Graham's greedy algorithm in its Longest
Processing Time (LPT) variant: sort the partitions by decreasing request
count and repeatedly give the next one to the least-loaded node, subject to
a cap on the number of partitions per node.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.grouping import max_partitions_per_node
from repro.monitoring.collector import PartitionSample


class AssignmentError(ValueError):
    """Raised when partitions cannot be assigned to the given nodes."""


@dataclass
class NodeBin:
    """One node being filled by the assignment algorithm."""

    node: str
    load: float = 0.0
    partitions: list[str] = field(default_factory=list)

    def assign(self, partition: PartitionSample) -> None:
        """Place a partition on this node."""
        self.partitions.append(partition.partition_id)
        self.load += partition.total_requests


def assign_partitions(
    partitions: list[PartitionSample],
    nodes: list[str],
    max_per_node: int | None = None,
) -> dict[str, list[str]]:
    """LPT assignment of ``partitions`` onto ``nodes`` (Algorithm 2).

    Returns a mapping node name -> list of partition ids.  Every node appears
    in the result, possibly with an empty list.
    """
    if not nodes:
        raise AssignmentError("cannot assign partitions to an empty node group")
    if max_per_node is None:
        max_per_node = max_partitions_per_node(len(partitions), len(nodes))
    if max_per_node * len(nodes) < len(partitions):
        # The cap cannot accommodate every partition; relax it to the minimum
        # feasible value so the algorithm always terminates with a full
        # assignment (the paper's cap is an estimate, not a hard constraint).
        max_per_node = max_partitions_per_node(len(partitions), len(nodes))

    bins = {node: NodeBin(node=node) for node in nodes}
    # Sort by number of requests in decreasing order (ties broken by id for
    # determinism).
    pending = sorted(partitions, key=lambda p: (-p.total_requests, p.partition_id))
    open_bins = set(nodes)
    for partition in pending:
        # sorted(): min() below already breaks ties on b.node, but iterating
        # the set raw would still leave the result hostage to hash order if
        # the key ever loses its total-order tiebreaker.  (lint rule D3)
        # Never empty: the cap holds every partition, so a bin closes only
        # when full and some bin stays open while partitions are pending.
        candidates = [bins[node] for node in sorted(open_bins)]
        target = min(candidates, key=lambda b: (b.load, len(b.partitions), b.node))
        target.assign(partition)
        if len(target.partitions) >= max_per_node:
            open_bins.discard(target.node)
    return {node: bin.partitions for node, bin in bins.items()}


def makespan(assignment: dict[str, list[str]], costs: dict[str, float]) -> float:
    """Load of the most loaded node under ``assignment`` (for tests/benches)."""
    loads = [
        sum(costs.get(partition, 0.0) for partition in partitions)
        for partitions in assignment.values()
    ]
    return max(loads, default=0.0)
