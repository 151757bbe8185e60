"""Tests for the time-stepped cluster simulator."""

import pytest

from repro.core.profiles import NODE_PROFILES
from repro.simulation.cluster import (
    STATE_BOOTING,
    STATE_RESTARTING,
    ClusterSimulator,
    SimulationError,
)
from repro.simulation.workload import WorkloadBinding


def make_binding(region_ids, threads=20, mix=None, target=None):
    weight = 1.0 / len(region_ids)
    return WorkloadBinding(
        name="tenant",
        threads=threads,
        op_mix=mix or {"read": 0.5, "update": 0.5},
        region_weights={rid: weight for rid in region_ids},
        target_ops_per_second=target,
    )


class TestTopology:
    def test_add_node_generates_names(self, simulator):
        assert len(simulator.nodes) == 3
        assert all(name.startswith("rs-") for name in simulator.nodes)

    def test_add_duplicate_node_rejected(self, simulator):
        name = next(iter(simulator.nodes))
        with pytest.raises(SimulationError):
            simulator.add_node(name=name)

    def test_async_node_boots_after_delay(self):
        sim = ClusterSimulator(boot_seconds=30.0)
        sim.add_node()
        name = sim.add_node(online=False)
        assert not sim.nodes[name].online
        sim.run(35.0)
        assert sim.nodes[name].online

    def test_remove_node_reassigns_regions(self, simulator):
        nodes = list(simulator.nodes)
        simulator.add_region("r1", "w", 1e8, node=nodes[0])
        simulator.remove_node(nodes[0])
        assert simulator.regions["r1"].node in nodes[1:]

    def test_remove_unknown_node_raises(self, simulator):
        with pytest.raises(SimulationError):
            simulator.remove_node("nope")

    def test_add_region_requires_known_node(self, simulator):
        with pytest.raises(SimulationError):
            simulator.add_region("r1", "w", 1e8, node="ghost")

    def test_duplicate_region_rejected(self, simulator):
        node = next(iter(simulator.nodes))
        simulator.add_region("r1", "w", 1e8, node=node)
        with pytest.raises(SimulationError):
            simulator.add_region("r1", "w", 1e8, node=node)

    def test_move_region(self, simulator):
        nodes = list(simulator.nodes)
        simulator.add_region("r1", "w", 1e8, node=nodes[0])
        simulator.move_region("r1", nodes[1])
        assert simulator.regions["r1"].node == nodes[1]
        assert simulator.assignment()["r1"] == nodes[1]

    def test_regions_on_matches_a_full_scan(self, simulator):
        nodes = list(simulator.nodes)
        for index in range(9):
            simulator.add_region(f"r{index}", "w", 1e8, node=nodes[index % 3])
        simulator.move_region("r0", nodes[2])
        simulator.regions["r4"].node = nodes[0]  # direct write, via the hook
        simulator.regions["r3"].node = None
        simulator.remove_node(nodes[1])
        for name in [*simulator.nodes, "gone"]:
            scan = [r for r in simulator.regions.values() if r.node == name]
            assert simulator.regions_on(name) == scan


class TestLocality:
    def test_region_starts_local(self, simulator):
        node = next(iter(simulator.nodes))
        region = simulator.add_region("r1", "w", 1e8, node=node)
        assert region.locality == 1.0

    def test_move_breaks_locality(self, simulator):
        nodes = list(simulator.nodes)
        region = simulator.add_region("r1", "w", 1e8, node=nodes[0])
        simulator.move_region("r1", nodes[1])
        assert region.locality < 0.5

    def test_major_compact_restores_locality(self, simulator):
        nodes = list(simulator.nodes)
        region = simulator.add_region("r1", "w", 1e8, node=nodes[0])
        simulator.move_region("r1", nodes[1])
        rewritten = simulator.major_compact(nodes[1])
        assert rewritten == pytest.approx(1e8)
        # Compaction takes simulated time proportional to the data size.
        simulator.run(60.0)
        assert region.locality == 1.0

    def test_node_locality_index_weights_by_size(self, simulator):
        nodes = list(simulator.nodes)
        simulator.add_region("local", "w", 3e8, node=nodes[0])
        remote = simulator.add_region("remote", "w", 1e8, node=nodes[1])
        simulator.move_region("remote", nodes[0])
        index = simulator.node_locality_index(nodes[0])
        assert 0.7 < index < 1.0
        assert remote.locality < 1.0


class TestReconfiguration:
    def test_reconfigure_drains_and_restarts(self, simulator):
        nodes = list(simulator.nodes)
        simulator.add_region("r1", "w", 1e8, node=nodes[0])
        drained = simulator.reconfigure_node(
            nodes[0], NODE_PROFILES["read"].config, profile_name="read"
        )
        assert drained == ["r1"]
        assert simulator.regions["r1"].node != nodes[0]
        assert simulator.nodes[nodes[0]].state == STATE_RESTARTING
        simulator.run(simulator.restart_seconds + 5.0)
        assert simulator.nodes[nodes[0]].online
        assert simulator.nodes[nodes[0]].profile_name == "read"

    def test_restarting_node_serves_nothing(self, simulator):
        nodes = list(simulator.nodes)
        simulator.add_region("r1", "w", 1e8, node=nodes[0])
        simulator.attach_workload(make_binding(["r1"]))
        simulator.reconfigure_node(nodes[0], NODE_PROFILES["read"].config, drain=False)
        simulator.tick()
        assert simulator.nodes[nodes[0]].served_ops == 0.0


class TestWorkloads:
    def test_attach_requires_known_regions(self, simulator):
        with pytest.raises(SimulationError):
            simulator.attach_workload(make_binding(["ghost"]))

    def test_tick_produces_throughput(self, simulator):
        node = next(iter(simulator.nodes))
        simulator.add_region("r1", "w", 1e8, node=node)
        simulator.attach_workload(make_binding(["r1"]))
        simulator.run(30.0)
        assert simulator.cluster_throughput() > 0
        assert simulator.total_ops > 0

    def test_target_cap_respected(self, simulator):
        node = next(iter(simulator.nodes))
        simulator.add_region("r1", "w", 1e8, node=node)
        simulator.attach_workload(make_binding(["r1"], target=500.0))
        simulator.run(30.0)
        assert simulator.binding_throughput("tenant") <= 500.0 + 1e-6

    def test_deactivated_workload_stops(self, simulator):
        node = next(iter(simulator.nodes))
        simulator.add_region("r1", "w", 1e8, node=node)
        simulator.attach_workload(make_binding(["r1"]))
        simulator.run(20.0)
        simulator.set_workload_active("tenant", False)
        simulator.run(20.0)
        # The closed-loop solver damps towards zero; only a negligible
        # residual remains after a few ticks.
        assert simulator.binding_throughput("tenant") < 1.0

    def test_unknown_workload_activation_raises(self, simulator):
        with pytest.raises(SimulationError):
            simulator.set_workload_active("ghost", True)

    def test_region_counters_accumulate(self, simulator):
        node = next(iter(simulator.nodes))
        region = simulator.add_region("r1", "w", 1e8, node=node)
        simulator.attach_workload(make_binding(["r1"]))
        simulator.run(30.0)
        assert region.reads > 0
        assert region.writes > 0

    def test_inserts_grow_region(self, simulator):
        node = next(iter(simulator.nodes))
        region = simulator.add_region("r1", "w", 1e8, node=node)
        simulator.attach_workload(
            make_binding(["r1"], mix={"insert": 1.0})
        )
        before = region.size_bytes
        simulator.run(60.0)
        assert region.size_bytes > before

    def test_metrics_recorded_per_node_and_cluster(self, simulator):
        node = next(iter(simulator.nodes))
        simulator.add_region("r1", "w", 1e8, node=node)
        simulator.attach_workload(make_binding(["r1"]))
        simulator.run(20.0)
        assert simulator.metrics.latest("cluster", "throughput") > 0
        assert simulator.metrics.latest(node, "cpu") >= 0.0
        assert 0.0 <= simulator.metrics.latest(node, "locality") <= 1.0

    def test_detach_workload(self, simulator):
        node = next(iter(simulator.nodes))
        simulator.add_region("r1", "w", 1e8, node=node)
        simulator.attach_workload(make_binding(["r1"]))
        simulator.detach_workload("tenant")
        assert "tenant" not in simulator.bindings

    def test_detach_workload_clears_reported_throughput(self, simulator):
        node = next(iter(simulator.nodes))
        simulator.add_region("r1", "w", 1e8, node=node)
        simulator.attach_workload(make_binding(["r1"]))
        simulator.run(20.0)
        assert simulator.cluster_throughput() > 0
        simulator.detach_workload("tenant")
        assert simulator.binding_throughput("tenant") == 0.0
        simulator.tick()
        assert simulator.cluster_throughput() == 0.0


class TestCapacityBehaviour:
    def test_more_nodes_more_throughput_when_overloaded(self):
        def total_for(node_count):
            sim = ClusterSimulator()
            nodes = [sim.add_node() for _ in range(node_count)]
            for index in range(8):
                sim.add_region(f"r{index}", "w", 5e8, node=nodes[index % node_count])
            sim.attach_workload(
                WorkloadBinding(
                    name="t",
                    threads=200,
                    op_mix={"read": 0.6, "update": 0.4},
                    region_weights={f"r{i}": 1 / 8 for i in range(8)},
                )
            )
            sim.run(60.0)
            return sim.cluster_throughput()

        assert total_for(4) > total_for(2) * 1.3

    def test_overloaded_node_throttles_tenants(self):
        sim = ClusterSimulator()
        node = sim.add_node()
        sim.add_region("r1", "w", 5e8, node=node)
        sim.attach_workload(
            WorkloadBinding(
                name="t",
                threads=500,
                op_mix={"read": 1.0},
                region_weights={"r1": 1.0},
            )
        )
        sim.run(60.0)
        # Achieved throughput is bounded by the single node's capacity, far
        # below what 500 unconstrained threads could push.
        assert sim.cluster_throughput() < 20_000
        assert sim.nodes[node].cpu_utilization > 0.5
