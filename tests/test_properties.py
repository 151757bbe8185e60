"""Property-based tests (hypothesis) for the core algorithms and key distributions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from key_choosers import (
    HotspotChooser,
    UniformChooser,
    ZipfianChooser,
    partition_request_shares,
)
from repro.core.assignment import assign_partitions
from repro.core.classification import AccessPattern, classify_partition
from repro.core.decision import distribution
from repro.core.grouping import nodes_per_group
from repro.core.output import TargetSlot, compute_output
from repro.core.sizing import SizingAlgorithm
from repro.monitoring.collector import PartitionSample
from repro.monitoring.smoothing import ExponentialSmoother
from repro.workloads.ycsb.workloads import hotspot_partition_weights

requests = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


@given(reads=requests, writes=requests, scans=requests)
def test_classification_is_total_and_consistent(reads, writes, scans):
    """Every partition gets exactly one group, consistent with its dominant op."""
    pattern = classify_partition(reads, writes, scans)
    assert pattern in AccessPattern
    total = reads + writes + scans
    if total > 0:
        if writes / total > 0.6:
            assert pattern is AccessPattern.WRITE
        if reads / total > 0.6 and scans == 0:
            assert pattern is AccessPattern.READ


@given(
    costs=st.lists(st.floats(min_value=0.0, max_value=1e5), min_size=1, max_size=60),
    node_count=st.integers(min_value=1, max_value=10),
    max_per_node=st.none() | st.integers(min_value=1, max_value=70),
)
def test_lpt_assignment_is_complete_and_reasonably_balanced(costs, node_count, max_per_node):
    """LPT assigns every partition exactly once, never past the effective
    per-node cap, and is within 2x of the mean load.

    A drawn cap below ceil(partitions / nodes) cannot place every partition,
    so the assignment relaxes it to that minimum feasible value.
    """
    partitions = [
        PartitionSample(f"p{i}", None, cost, 0.0, 0.0) for i, cost in enumerate(costs)
    ]
    nodes = [f"n{i}" for i in range(node_count)]
    assignment = assign_partitions(partitions, nodes, max_per_node=max_per_node)
    assigned = sorted(p for parts in assignment.values() for p in parts)
    assert assigned == sorted(p.partition_id for p in partitions)
    feasible = -(-len(costs) // node_count)
    cap = feasible if max_per_node is None else max(max_per_node, feasible)
    assert max(len(parts) for parts in assignment.values()) <= cap
    cost_map = {p.partition_id: p.total_requests for p in partitions}
    total = sum(cost_map.values())
    if total > 0 and node_count <= len(costs):
        # Graham's bound: the makespan of LPT is at most (4/3 - 1/3m) * OPT;
        # the mean load is a lower bound for OPT, and every schedule's
        # makespan is also bounded below by the largest single job.
        bound = max(total / node_count, max(cost_map.values())) * 2.0
        makespan = max(sum(cost_map[p] for p in group) for group in assignment.values())
        assert makespan <= bound + 1e-6


@given(
    group_sizes=st.dictionaries(
        st.sampled_from(list(AccessPattern)),
        st.integers(min_value=1, max_value=30),
        min_size=1,
        max_size=4,
    ),
    total_nodes=st.integers(min_value=1, max_value=40),
)
def test_grouping_conserves_nodes(group_sizes, total_nodes):
    """Node allocation sums to the available nodes and never exceeds them."""
    groups = {
        pattern: [
            PartitionSample(f"{pattern.value}-{i}", None, 10.0, 0.0, 0.0)
            for i in range(size)
        ]
        for pattern, size in group_sizes.items()
    }
    allocation = nodes_per_group(groups, total_nodes)
    assert sum(allocation.values()) <= total_nodes
    if total_nodes >= len(groups):
        assert sum(allocation.values()) == total_nodes
        assert all(count >= 1 for count in allocation.values())


@given(mixes=st.lists(st.tuples(requests, requests, requests), min_size=1, max_size=20))
def test_distribution_places_every_partition_exactly_once(mixes):
    """Stage C gives one slot per node and every partition exactly one slot,
    for every cluster size from 1 to the partition count -- including
    clusters with fewer nodes than access-pattern groups."""
    partitions = [
        PartitionSample(f"p{i}", None, reads, writes, scans)
        for i, (reads, writes, scans) in enumerate(mixes)
    ]
    for cluster_size in range(1, len(partitions) + 1):
        slots = distribution(partitions, cluster_size)
        assert len(slots) == cluster_size
        placed = sorted(p for slot in slots for p in slot.partitions)
        assert placed == sorted(p.partition_id for p in partitions)


@given(
    partition_count=st.integers(min_value=1, max_value=30),
    node_count=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=100),
)
def test_output_computation_assigns_each_slot_once(partition_count, node_count, seed):
    """Stage D hands every target slot to exactly one node."""
    import random

    rng = random.Random(seed)
    partitions = [f"p{i}" for i in range(partition_count)]
    current_state = {
        f"n{i}": {p for p in partitions if rng.randrange(node_count) == i}
        for i in range(node_count)
    }
    current_profiles = {node: "default" for node in current_state}
    slot_count = max(1, min(node_count, partition_count))
    slots = [
        TargetSlot(
            profile="read",
            partitions=frozenset(partitions[i::slot_count]),
        )
        for i in range(slot_count)
    ]
    targets = compute_output(current_state, current_profiles, slots)
    assert len(targets) == len(slots)
    assert len({t.node for t in targets}) == len(targets)
    covered = set()
    for target in targets:
        covered |= target.partitions
    assert covered == set(partitions)


@given(st.lists(st.booleans(), min_size=1, max_size=30))
def test_sizing_algorithm_never_removes_more_than_one(decisions):
    """Algorithm 1 removes at most one node per iteration and adds powers of two."""
    algorithm = SizingAlgorithm()
    for remove in decisions:
        outcome = algorithm.decide(0.3 if remove else 0.9, remove=remove)
        assert outcome.delta >= -1
        if outcome.delta > 0:
            assert outcome.delta & (outcome.delta - 1) == 0  # power of two


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=20))
def test_smoothed_value_stays_within_observed_range(values):
    """Exponential smoothing never leaves the observed value range."""
    smoother = ExponentialSmoother(window=len(values))
    for value in values:
        smoother.observe(value)
    assert min(values) - 1e-9 <= smoother.value() <= max(values) + 1e-9


@given(st.integers(min_value=1, max_value=32))
def test_hotspot_weights_are_a_distribution(partitions):
    """Per-partition request shares are non-negative and sum to one."""
    weights = hotspot_partition_weights(partitions)
    assert len(weights) == partitions
    assert all(w >= 0 for w in weights)
    assert abs(sum(weights) - 1.0) < 1e-9


# --------------------------------------------------------------------- #
# key distributions: ZipfianChooser.extend and partition_request_shares
# --------------------------------------------------------------------- #

seeds = st.integers(min_value=0, max_value=2**16)


@given(
    record_count=st.integers(min_value=2, max_value=4000),
    growth=st.integers(min_value=1, max_value=4000),
    theta=st.floats(min_value=0.3, max_value=0.99),
    seed=seeds,
)
@settings(max_examples=60)
def test_zipfian_extend_matches_fresh_chooser(record_count, growth, theta, seed):
    """Incremental zetan growth equals a from-scratch chooser's state."""
    extended = ZipfianChooser(record_count, theta=theta, seed=seed)
    extended.extend(record_count + growth)
    fresh = ZipfianChooser(record_count + growth, theta=theta, seed=seed)
    assert extended.record_count == fresh.record_count
    assert extended._zetan == pytest.approx(fresh._zetan, rel=1e-9)
    assert extended._eta == pytest.approx(fresh._eta, rel=1e-9)
    for _ in range(20):
        index = extended.next_index()
        assert 0 <= index < record_count + growth


@given(
    record_count=st.integers(min_value=2, max_value=1000),
    growths=st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=8),
    seed=seeds,
)
@settings(max_examples=60)
def test_zipfian_state_is_monotone_under_key_space_growth(record_count, growths, seed):
    """Growing the key space only ever grows the harmonic sum; shrinking is a no-op."""
    chooser = ZipfianChooser(record_count, seed=seed)
    previous_zetan = chooser._zetan
    previous_count = chooser.record_count
    for growth in growths:
        chooser.extend(chooser.record_count + growth)
        assert chooser.record_count == previous_count + growth
        if growth > 0:
            assert chooser._zetan > previous_zetan
        else:
            assert chooser._zetan == previous_zetan
        previous_zetan = chooser._zetan
        previous_count = chooser.record_count
    # extend() never shrinks.
    chooser.extend(1)
    assert chooser.record_count == previous_count
    assert chooser._zetan == previous_zetan


@given(
    record_count=st.integers(min_value=8, max_value=50_000),
    partitions=st.integers(min_value=1, max_value=12),
    seed=seeds,
)
@settings(max_examples=60)
def test_partition_shares_are_a_distribution(record_count, partitions, seed):
    """Shares are non-negative and sum to 1 for every chooser family."""
    for factory in (UniformChooser, HotspotChooser, ZipfianChooser):
        shares = partition_request_shares(
            factory, record_count, partitions, samples=400, seed=seed
        )
        assert len(shares) == partitions
        assert all(share >= 0.0 for share in shares)
        assert sum(shares) == pytest.approx(1.0, abs=1e-9)


class _SampledUniform(UniformChooser):
    """Defeats the exact-type check so the sampling fallback runs."""


class _SampledHotspot(HotspotChooser):
    """Defeats the exact-type check so the sampling fallback runs."""


@given(
    record_count=st.integers(min_value=50, max_value=20_000),
    partitions=st.integers(min_value=1, max_value=8),
    seed=seeds,
)
@settings(max_examples=25, deadline=None)
def test_closed_form_shares_match_reference_sampling(record_count, partitions, seed):
    """The analytic uniform/hotspot shares agree with drawn-key estimates."""
    for analytic_factory, sampled_factory in (
        (UniformChooser, _SampledUniform),
        (HotspotChooser, _SampledHotspot),
    ):
        analytic = partition_request_shares(
            analytic_factory, record_count, partitions, seed=seed
        )
        sampled = partition_request_shares(
            sampled_factory, record_count, partitions, samples=8000, seed=seed
        )
        for expected, estimate in zip(analytic, sampled):
            assert estimate == pytest.approx(expected, abs=0.03)


@given(
    record_count=st.integers(min_value=100, max_value=20_000),
    scale=st.integers(min_value=2, max_value=50),
    partitions=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=40)
def test_hotspot_shares_scale_free_under_key_space_growth(record_count, scale, partitions):
    """Growing the key space keeps the hotspot split (the 34/26/20/20 shape).

    The hot set is a *fraction* of the key space, so scaling the record
    count must not move the per-partition shares beyond boundary rounding.
    """
    small = partition_request_shares(HotspotChooser, record_count, partitions)
    large = partition_request_shares(HotspotChooser, record_count * scale, partitions)
    for a, b in zip(small, large):
        assert b == pytest.approx(a, abs=2.0 * partitions / record_count + 1e-9)
