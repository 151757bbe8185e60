"""Micro-benchmarks of the Decision Maker algorithms at scale.

The paper argues manual heterogeneous configuration is impracticable at the
scale of hundreds or thousands of nodes and partitions; these benchmarks
show the automated pipeline (classification, grouping, LPT assignment and
output computation) stays fast well beyond the paper's cluster sizes.
"""

import random

from repro.core.assignment import assign_partitions
from repro.core.classification import classify_partitions
from repro.core.grouping import nodes_per_group
from repro.core.output import TargetSlot, compute_output
from repro.monitoring.collector import PartitionSample


def _partitions(count: int, seed: int = 0) -> dict[str, PartitionSample]:
    rng = random.Random(seed)
    partitions = {}
    for index in range(count):
        reads = rng.uniform(0, 10_000)
        writes = rng.uniform(0, 10_000)
        scans = rng.uniform(0, 1_000)
        rng.uniform(1e8, 1e9)  # unused draw, kept so the generated counts do not change
        partitions[f"part-{index}"] = PartitionSample(
            partition_id=f"part-{index}",
            node=f"node-{index % 50}",
            reads=reads,
            writes=writes,
            scans=scans,
        )
    return partitions


def test_classification_scales_to_thousands_of_partitions(benchmark):
    """Classify 5,000 partitions."""
    partitions = _partitions(5_000)
    groups = benchmark(classify_partitions, partitions.values())
    assert sum(len(members) for members in groups.values()) == 5_000


def test_lpt_assignment_scales(benchmark):
    """LPT-assign 2,000 partitions onto 100 nodes."""
    rng = random.Random(1)
    members = [
        PartitionSample(f"p-{i}", None, rng.uniform(0, 10_000), 0.0, 0.0)
        for i in range(2_000)
    ]
    nodes = [f"node-{i}" for i in range(100)]
    assignment = benchmark(assign_partitions, members, nodes)
    assert sum(len(parts) for parts in assignment.values()) == 2_000


def test_grouping_and_output_computation(benchmark):
    """Full Stage C + Stage D pipeline on a 500-partition, 50-node cluster."""
    partitions = _partitions(500, seed=2)

    def pipeline():
        groups = classify_partitions(partitions.values())
        allocation = nodes_per_group(groups, 50)
        slots = []
        for pattern, node_count in allocation.items():
            per_slot = assign_partitions(
                groups[pattern], [f"{pattern.value}-{i}" for i in range(node_count)]
            )
            slots.extend(
                TargetSlot(profile=pattern.value, partitions=frozenset(parts))
                for parts in per_slot.values()
            )
        current_state = {
            f"node-{i}": {p for p in partitions if hash(p) % 50 == i} for i in range(50)
        }
        current_profiles = {f"node-{i}": "default" for i in range(50)}
        return compute_output(current_state, current_profiles, slots)

    targets = benchmark(pipeline)
    assert targets
