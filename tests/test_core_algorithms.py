"""Tests for the Decision Maker building blocks (Algorithms 1-3, Table 1)."""

import pytest

from repro.core.assignment import AssignmentError, assign_partitions, makespan
from repro.core.classification import (
    AccessPattern,
    classify_partition,
    classify_partitions,
)
from repro.core.grouping import GroupingError, max_partitions_per_node, nodes_per_group
from repro.core.output import NodeTarget, TargetSlot, compute_output, plan_moves
from repro.core.parameters import MeTParameters
from repro.core.profiles import NODE_PROFILES, profile_for
from repro.core.sizing import SizingAlgorithm
from repro.monitoring.collector import PartitionSample


def sample(pid, reads=0.0, writes=0.0, scans=0.0, node="n1"):
    return PartitionSample(
        partition_id=pid, node=node, reads=reads, writes=writes, scans=scans, size_bytes=1e8
    )


class TestProfiles:
    def test_table1_values(self):
        read = NODE_PROFILES["read"].config
        assert read.block_cache_fraction == pytest.approx(0.55)
        assert read.memstore_fraction == pytest.approx(0.10)
        assert read.block_size_bytes == 32 * 1024
        write = NODE_PROFILES["write"].config
        assert write.memstore_fraction == pytest.approx(0.55)
        assert write.block_size_bytes == 64 * 1024
        scan = NODE_PROFILES["scan"].config
        assert scan.block_size_bytes == 128 * 1024
        rw = NODE_PROFILES["read_write"].config
        assert rw.block_cache_fraction == pytest.approx(0.45)

    def test_all_profiles_respect_heap_constraint(self):
        for profile in NODE_PROFILES.values():
            profile.config.validate()

    def test_profile_lookup(self):
        assert profile_for("scan").name == "scan"
        with pytest.raises(KeyError):
            profile_for("nope")


class TestParameters:
    def test_paper_defaults_valid(self):
        params = MeTParameters().validate()
        assert params.monitor_period_seconds * params.decision_samples == pytest.approx(180.0)
        assert params.suboptimal_nodes_threshold == 0.5
        assert params.write_locality_threshold == 0.70
        assert params.read_locality_threshold == 0.90

    @pytest.mark.parametrize(
        "overrides",
        [
            {"monitor_period_seconds": 0},
            {"decision_samples": 0},
            {"smoothing_alpha": 0.0},
            {"overload_threshold": 1.5},
            {"underload_threshold": 0.9},
            {"underload_fraction": 0.0},
            {"suboptimal_nodes_threshold": 0.0},
            {"classification_threshold": 1.0},
            {"min_nodes": 0},
            {"max_nodes": 0},
        ],
    )
    def test_invalid_parameters_rejected(self, overrides):
        from dataclasses import replace

        with pytest.raises(ValueError):
            replace(MeTParameters(), **overrides).validate()


class TestClassification:
    def test_read_partition(self):
        assert classify_partition(reads=90, writes=10, scans=0) is AccessPattern.READ

    def test_write_partition(self):
        assert classify_partition(reads=10, writes=90, scans=0) is AccessPattern.WRITE

    def test_scan_partition(self):
        assert classify_partition(reads=5, writes=5, scans=90) is AccessPattern.SCAN

    def test_mixed_partition(self):
        assert classify_partition(reads=50, writes=50, scans=0) is AccessPattern.READ_WRITE

    def test_idle_partition_defaults_to_read_write(self):
        assert classify_partition(0, 0, 0) is AccessPattern.READ_WRITE

    def test_threshold_is_strict(self):
        # Exactly 60% reads is NOT "more than 60%".
        assert classify_partition(reads=60, writes=40, scans=0) is AccessPattern.READ_WRITE

    def test_paper_workload_mixes(self):
        # Workload C (read only), B (write only), E (scan heavy), A (50/50).
        assert classify_partition(100, 0, 0) is AccessPattern.READ
        assert classify_partition(0, 100, 0) is AccessPattern.WRITE
        assert classify_partition(5, 5, 95) is AccessPattern.SCAN
        assert classify_partition(50, 50, 0) is AccessPattern.READ_WRITE

    def test_classify_partitions_groups(self):
        groups = classify_partitions(
            [
                sample("r", reads=100),
                sample("w", writes=100),
                sample("s", scans=100),
                sample("m", reads=50, writes=50),
            ]
        )
        assert list(groups) == list(AccessPattern)
        members = {pattern: [p.partition_id for p in group] for pattern, group in groups.items()}
        assert members == {
            AccessPattern.READ: ["r"],
            AccessPattern.WRITE: ["w"],
            AccessPattern.READ_WRITE: ["m"],
            AccessPattern.SCAN: ["s"],
        }

    def test_classify_partitions_custom_threshold(self):
        groups = classify_partitions([sample("x", reads=55, writes=45)], threshold=0.50)
        assert AccessPattern.READ in groups


class TestGrouping:
    def _groups(self, counts):
        return {
            pattern: [
                sample(f"{pattern.value}-{i}", reads=100.0) for i in range(count)
            ]
            for pattern, count in counts.items()
            if count
        }

    def test_proportional_allocation_matches_paper_example(self):
        # Paper Section 3.3: groups of 4/5/4/8 partitions on 5 nodes ->
        # read/write mix gets 2 nodes, the others 1 each.
        groups = self._groups(
            {
                AccessPattern.READ: 4,
                AccessPattern.WRITE: 5,
                AccessPattern.SCAN: 4,
                AccessPattern.READ_WRITE: 8,
            }
        )
        allocation = nodes_per_group(groups, 5)
        assert allocation[AccessPattern.READ_WRITE] == 2
        assert allocation[AccessPattern.READ] == 1
        assert allocation[AccessPattern.WRITE] == 1
        assert allocation[AccessPattern.SCAN] == 1

    def test_allocation_sums_to_total(self):
        groups = self._groups({AccessPattern.READ: 7, AccessPattern.WRITE: 3})
        for total in (2, 3, 5, 8):
            allocation = nodes_per_group(groups, total)
            assert sum(allocation.values()) == total

    def test_every_nonempty_group_gets_a_node(self):
        groups = self._groups(
            {AccessPattern.READ: 20, AccessPattern.WRITE: 1, AccessPattern.SCAN: 1}
        )
        allocation = nodes_per_group(groups, 5)
        assert all(count >= 1 for count in allocation.values())

    def test_fewer_nodes_than_groups_keeps_biggest(self):
        groups = self._groups(
            {AccessPattern.READ: 5, AccessPattern.WRITE: 3, AccessPattern.SCAN: 1}
        )
        allocation = nodes_per_group(groups, 2)
        assert sum(allocation.values()) == 2

    def test_empty_groups_rejected(self):
        with pytest.raises(GroupingError):
            nodes_per_group({}, 3)
        with pytest.raises(GroupingError):
            nodes_per_group(self._groups({AccessPattern.READ: 1}), 0)

    def test_max_partitions_per_node(self):
        assert max_partitions_per_node(8, 2) == 4
        assert max_partitions_per_node(9, 2) == 5
        assert max_partitions_per_node(0, 2) == 1
        with pytest.raises(GroupingError):
            max_partitions_per_node(4, 0)


class TestAssignment:
    def _partitions(self, costs):
        return [
            sample(f"p{i}", reads=cost) for i, cost in enumerate(costs)
        ]

    def test_all_partitions_assigned(self):
        assignment = assign_partitions(self._partitions([5, 4, 3, 2, 1]), ["a", "b"])
        assigned = [p for parts in assignment.values() for p in parts]
        assert sorted(assigned) == [f"p{i}" for i in range(5)]

    def test_lpt_balances_load(self):
        costs = [10, 9, 8, 7, 2, 1]
        partitions = self._partitions(costs)
        assignment = assign_partitions(partitions, ["a", "b"])
        cost_map = {f"p{i}": c for i, c in enumerate(costs)}
        heaviest = makespan(assignment, cost_map)
        assert heaviest <= sum(costs) * 0.65

    def test_hotspots_spread_over_nodes(self):
        # Two very hot partitions must land on different nodes.
        assignment = assign_partitions(self._partitions([100, 99, 1, 1]), ["a", "b"])
        locations = {
            p: node for node, parts in assignment.items() for p in parts
        }
        assert locations["p0"] != locations["p1"]

    def test_partition_cap_respected(self):
        assignment = assign_partitions(self._partitions([1] * 6), ["a", "b", "c"], max_per_node=2)
        assert all(len(parts) <= 2 for parts in assignment.values())

    def test_infeasible_cap_relaxed(self):
        assignment = assign_partitions(self._partitions([1] * 10), ["a", "b"], max_per_node=1)
        assert sum(len(parts) for parts in assignment.values()) == 10

    def test_empty_nodes_rejected(self):
        with pytest.raises(AssignmentError):
            assign_partitions(self._partitions([1]), [])

    def test_deterministic(self):
        partitions = self._partitions([5, 5, 3, 3, 1, 1])
        a = assign_partitions(partitions, ["a", "b"])
        b = assign_partitions(partitions, ["a", "b"])
        assert a == b


class TestSizingAlgorithm:
    def test_first_time_triggers_initial_reconfiguration(self):
        algorithm = SizingAlgorithm()
        decision = algorithm.decide(suboptimal_nodes=0.2, remove=False)
        assert decision.initial_reconfiguration
        assert decision.delta == 0

    def test_first_time_with_many_overloaded_nodes_adds_straightaway(self):
        algorithm = SizingAlgorithm(suboptimal_nodes_threshold=0.5)
        decision = algorithm.decide(suboptimal_nodes=0.8, remove=False)
        assert decision.delta == 1
        assert not decision.initial_reconfiguration

    def test_quadratic_growth(self):
        algorithm = SizingAlgorithm()
        algorithm.decide(0.9, remove=False)
        deltas = [algorithm.decide(0.9, remove=False).delta for _ in range(3)]
        assert deltas == [2, 4, 8]

    def test_linear_removal_resets_growth(self):
        algorithm = SizingAlgorithm()
        algorithm.decide(0.9, remove=False)
        algorithm.decide(0.9, remove=False)
        removal = algorithm.decide(0.1, remove=True)
        assert removal.delta == -1
        # Growth restarts from 1 after a removal.
        assert algorithm.decide(0.9, remove=False).delta == 1

    def test_reset_growth(self):
        algorithm = SizingAlgorithm()
        algorithm.decide(0.9, remove=False)
        algorithm.decide(0.9, remove=False)
        algorithm.reset_growth()
        assert algorithm.decide(0.9, remove=False).delta == 1

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            SizingAlgorithm(suboptimal_nodes_threshold=0.0)


class TestOutputComputation:
    def test_first_time_passes_optimal_state_through(self):
        slots = [
            TargetSlot("read", frozenset({"p1", "p2"})),
            TargetSlot("write", frozenset({"p3"})),
        ]
        targets = compute_output(
            current_state={"n1": {"p1", "p3"}, "n2": {"p2"}},
            current_profiles={"n1": "default", "n2": "default"},
            optimal_state=slots,
            first_time=True,
        )
        assert len(targets) == 2
        assert all(t.needs_restart for t in targets)

    def test_matching_prefers_similar_sets(self):
        slots = [
            TargetSlot("read", frozenset({"p1", "p2"})),
            TargetSlot("write", frozenset({"p3", "p4"})),
        ]
        targets = compute_output(
            current_state={"n1": {"p3", "p4"}, "n2": {"p1", "p2"}},
            current_profiles={"n1": "write", "n2": "read"},
            optimal_state=slots,
        )
        by_node = {t.node: t for t in targets}
        assert by_node["n1"].profile == "write"
        assert by_node["n2"].profile == "read"
        assert not any(t.needs_restart for t in targets)
        assert plan_moves({"n1": {"p3", "p4"}, "n2": {"p1", "p2"}}, targets) == []

    def test_changed_profile_requires_restart(self):
        slots = [TargetSlot("scan", frozenset({"p1"}))]
        targets = compute_output(
            current_state={"n1": {"p1"}},
            current_profiles={"n1": "read"},
            optimal_state=slots,
        )
        assert targets[0].needs_restart

    def test_new_nodes_receive_leftover_slots(self):
        slots = [
            TargetSlot("read", frozenset({"p1"})),
            TargetSlot("write", frozenset({"p2"})),
        ]
        targets = compute_output(
            current_state={"n1": {"p1", "p2"}},
            current_profiles={"n1": "read", "new": "unprovisioned"},
            optimal_state=slots,
            new_nodes=["new"],
        )
        nodes = {t.node for t in targets}
        assert nodes == {"n1", "new"}

    def test_shrinking_leaves_nodes_unassigned(self):
        slots = [TargetSlot("read", frozenset({"p1", "p2"}))]
        targets = compute_output(
            current_state={"n1": {"p1"}, "n2": {"p2"}},
            current_profiles={"n1": "read", "n2": "read"},
            optimal_state=slots,
        )
        assert len(targets) == 1

    def test_plan_moves_emits_a_targets_moves_in_sorted_order(self):
        # The actuator applies moves in this order, so it must not follow
        # the target's hash-seeded partition set order (lint rule D3).
        partitions = {f"p{i:02d}" for i in range(20)}
        target = NodeTarget(node="n2", profile="read", partitions=set(partitions))
        moves = plan_moves({"n1": partitions}, [target])
        assert moves == [(f"p{i:02d}", "n2") for i in range(20)]

    def test_plan_moves_lists_only_changes(self):
        targets = compute_output(
            current_state={"n1": {"p1"}, "n2": {"p2"}},
            current_profiles={"n1": "read", "n2": "read"},
            optimal_state=[
                TargetSlot("read", frozenset({"p1", "p2"})),
                TargetSlot("read", frozenset()),
            ],
        )
        moves = plan_moves({"n1": {"p1"}, "n2": {"p2"}}, targets)
        assert len(moves) == 1
