"""Unit tests for the scenario engine: specs, schedules, events, faults."""

from dataclasses import replace

import pytest

from repro.scenarios import (
    CANNED_SCENARIOS,
    CONTROLLERS,
    DiurnalLoad,
    FlashCrowd,
    MixShift,
    NodeCrash,
    NodeRecovery,
    NodeSlowdown,
    ScenarioSpec,
    TenantArrival,
    TenantDeparture,
    build_scenario,
    compile_spec,
    run_scenario,
)
from repro.scenarios.catalog import SMALL_A, SMALL_C, SMALL_E
from repro.scenarios.context import ScenarioContext
from repro.scenarios.schedule import EventSchedule, ScheduledAction, control_steps
from repro.simulation.cluster import ClusterSimulator, SimulationError


def two_tenant_spec(**overrides) -> ScenarioSpec:
    defaults = dict(
        name="unit",
        tenants=(SMALL_A.with_target(2000.0), SMALL_C.with_target(2000.0)),
        duration_minutes=5.0,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestSpec:
    def test_rejects_empty_tenants(self):
        with pytest.raises(ValueError, match="at least one tenant"):
            ScenarioSpec(name="empty", tenants=())

    def test_rejects_duplicate_tenants(self):
        with pytest.raises(ValueError, match="duplicate"):
            ScenarioSpec(
                name="dup",
                tenants=(SMALL_A, SMALL_A),
            )

    def test_rejects_unknown_placement_and_late_controller_start(self):
        with pytest.raises(ValueError, match="unknown placement"):
            two_tenant_spec(placement="round-robin")
        with pytest.raises(ValueError, match="controller start"):
            two_tenant_spec(controller_start_minute=5.0)

    def test_controller_joins_at_its_start_minute(self):
        """Before the start minute the run is the controller-free run."""
        spec = two_tenant_spec(controller_start_minute=2.0, placement="random-homogeneous")
        ramp = run_scenario(spec, controller="none").run.series
        joined = run_scenario(spec, controller="met")
        assert joined.decisions and min(d["minute"] for d in joined.decisions) >= 2.0
        early = [point for point in joined.run.series if point.minute <= 2.0]
        assert early == ramp[: len(early)]

    def test_configured_workload_applies_target(self):
        tenant = SMALL_A.with_target(1234.0)
        assert tenant.target_ops_per_second == 1234.0

    def test_a_workloads_own_cap_reaches_its_binding(self):
        """A tenant's cap is stated once, on the workload: YCSB-D's own
        1,500 ops/s and a capped TPC-C tenant reach their bindings as is."""
        from repro.workloads.tpcc.schema import TPCCConfig
        from repro.workloads.tpcc.tenant import TPCCTenant
        from repro.workloads.ycsb.workloads import CORE_WORKLOADS

        orders = TPCCTenant(
            name="orders",
            config=TPCCConfig(warehouses=4, warehouses_per_node=2, clients=10,
                              scale_factor=0.02),
            target_ops_per_second=700.0,
        )
        spec = ScenarioSpec(
            name="own-caps", tenants=(CORE_WORKLOADS["D"], orders), duration_minutes=1.0
        )
        simulator, _, _ = build_scenario(spec)
        assert simulator.bindings["workload-D"].target_ops_per_second == 1500.0
        assert simulator.bindings["orders"].target_ops_per_second == 700.0

    def test_with_events_appends(self):
        spec = two_tenant_spec()
        extended = replace(spec, events=(*spec.events, NodeCrash(minute=1.0)))
        assert len(extended.events) == 1
        assert spec.events == ()


class TestSchedule:
    def test_fire_due_is_ordered_and_once(self):
        fired = []
        actions = [
            ScheduledAction(30.0, "b", lambda: fired.append("b")),
            ScheduledAction(10.0, "a", lambda: fired.append("a")),
            ScheduledAction(60.0, "c", lambda: fired.append("c")),
        ]
        schedule = EventSchedule(actions)
        first = schedule.fire_due(30.0)
        assert [a.label for a in first] == ["a", "b"]
        assert schedule.fire_due(30.0) == []
        assert [a.label for a in schedule.fire_due(120.0)] == ["c"]
        assert fired == ["a", "b", "c"]
        assert schedule.next_time() is None

    def test_control_steps_cover_endpoints(self):
        spec = two_tenant_spec(control_interval_seconds=15.0)
        steps = control_steps(spec, 1.0, 2.0)
        assert steps[0] == 60.0
        assert steps[-1] == 120.0
        assert all(b - a <= 15.0 + 1e-9 for a, b in zip(steps, steps[1:]))

    def test_control_steps_clamp_to_duration(self):
        spec = two_tenant_spec(duration_minutes=5.0)
        steps = control_steps(spec, 4.5, 20.0)
        assert steps[-1] == 300.0


class TestLoadEvents:
    def test_diurnal_multiplier_oscillates(self):
        curve = DiurnalLoad(tenant="A", period_minutes=8.0, amplitude=0.5)
        assert curve.multiplier(2.0) == pytest.approx(1.5)
        assert curve.multiplier(6.0) == pytest.approx(0.5)
        assert curve.multiplier(0.0) == pytest.approx(1.0)

    def test_flash_crowd_profile(self):
        crowd = FlashCrowd(
            tenant="C", start_minute=2.0, ramp_minutes=1.0,
            hold_minutes=2.0, decay_minutes=1.0, magnitude=3.0,
        )
        assert crowd.multiplier(1.0) == 1.0
        assert crowd.multiplier(2.5) == pytest.approx(2.0)
        assert crowd.multiplier(4.0) == pytest.approx(3.0)
        assert crowd.multiplier(5.5) == pytest.approx(2.0)
        assert crowd.multiplier(7.0) == 1.0

    def test_flash_crowd_modulates_target_and_resets(self):
        spec = two_tenant_spec(
            events=(FlashCrowd(tenant="C", start_minute=1.0, magnitude=2.0),),
        )
        simulator, context, _ = build_scenario(spec)
        schedule = compile_spec(spec, context)
        schedule.fire_due(0.0)
        binding = simulator.bindings["workload-C"]
        assert binding.target_ops_per_second == 2000.0
        # Mid-hold the cap is doubled.
        schedule.fire_due(150.0)
        assert binding.target_ops_per_second == pytest.approx(4000.0)
        # After the decay it resets to the baseline.
        schedule.fire_due(spec.duration_seconds)
        assert binding.target_ops_per_second == pytest.approx(2000.0)

    def test_instant_decay_flash_crowd_is_valid(self):
        crowd = FlashCrowd(
            tenant="A", start_minute=1.0, ramp_minutes=0.0,
            hold_minutes=1.0, decay_minutes=0.0, magnitude=2.0,
        )
        assert crowd.multiplier(1.0) == 2.0
        assert crowd.multiplier(2.0) == 1.0
        spec = two_tenant_spec(events=(crowd,))
        _, context, _ = build_scenario(spec)
        assert compile_spec(spec, context).next_time() is not None

    def test_degenerate_curves_are_rejected_at_compile_time(self):
        for event in (
            DiurnalLoad(tenant="A", period_minutes=0.0),
            FlashCrowd(tenant="A", start_minute=1.0, decay_minutes=-1.0),
            FlashCrowd(tenant="A", start_minute=1.0, magnitude=0.0),
        ):
            spec = two_tenant_spec(events=(event,))
            _, context, _ = build_scenario(spec)
            with pytest.raises(ValueError):
                compile_spec(spec, context)

    def test_bounded_diurnal_returns_to_baseline(self):
        spec = two_tenant_spec(
            events=(
                DiurnalLoad(tenant="A", period_minutes=8.0, amplitude=0.6,
                            end_minute=2.0),
            ),
        )
        simulator, context, _ = build_scenario(spec)
        schedule = compile_spec(spec, context)
        schedule.fire_due(110.0)
        binding = simulator.bindings["workload-A"]
        assert binding.target_ops_per_second != pytest.approx(2000.0)
        # Past the curve's end the tenant is back at its baseline target.
        schedule.fire_due(130.0)
        assert binding.target_ops_per_second == pytest.approx(2000.0)

    def test_uncapped_tenant_returns_to_uncapped_after_curve(self):
        spec = two_tenant_spec(
            tenants=(SMALL_A, SMALL_C.with_target(2000.0)),
            events=(FlashCrowd(tenant="A", start_minute=1.0, magnitude=2.0),),
        )
        simulator, context, _ = build_scenario(spec)
        schedule = compile_spec(spec, context)
        binding = simulator.bindings["workload-A"]
        assert binding.target_ops_per_second is None
        schedule.fire_due(150.0)
        assert binding.target_ops_per_second is not None
        schedule.fire_due(spec.duration_seconds)
        assert binding.target_ops_per_second is None

    def test_overlapping_curves_multiply(self):
        spec = two_tenant_spec(
            events=(
                DiurnalLoad(tenant="A", period_minutes=4.0, amplitude=0.5),
                FlashCrowd(tenant="A", start_minute=0.0, ramp_minutes=0.5,
                           hold_minutes=2.0, decay_minutes=0.5, magnitude=2.0),
            ),
        )
        simulator, context, _ = build_scenario(spec)
        schedule = compile_spec(spec, context)
        # At minute 1 the diurnal sine peaks (1.5x) and the crowd holds (2x).
        schedule.fire_due(60.0)
        binding = simulator.bindings["workload-A"]
        assert binding.target_ops_per_second == pytest.approx(2000.0 * 1.5 * 2.0)

    def test_stacked_same_class_curves_compose(self):
        """Two identical-looking events keep separate multiplier keys."""
        spec = two_tenant_spec(
            events=(
                FlashCrowd(tenant="A", start_minute=0.0, ramp_minutes=0.5,
                           hold_minutes=2.0, decay_minutes=0.5, magnitude=2.0),
                FlashCrowd(tenant="A", start_minute=0.0, ramp_minutes=0.5,
                           hold_minutes=2.0, decay_minutes=0.5, magnitude=3.0),
            ),
        )
        simulator, context, _ = build_scenario(spec)
        schedule = compile_spec(spec, context)
        schedule.fire_due(60.0)
        binding = simulator.bindings["workload-A"]
        assert binding.target_ops_per_second == pytest.approx(2000.0 * 2.0 * 3.0)

    def test_event_entirely_after_scenario_end_compiles_to_nothing(self):
        spec = two_tenant_spec(
            duration_minutes=5.0,
            events=(
                FlashCrowd(tenant="A", start_minute=12.0),
                MixShift(tenant="A", start_minute=8.0, end_minute=9.0,
                         to_mix=(("update", 1.0),)),
            ),
        )
        simulator, context, _ = build_scenario(spec)
        schedule = compile_spec(spec, context)
        assert schedule.next_time() is None


class TestChurnAndMixEvents:
    def test_tenant_arrival_and_departure(self):
        spec = two_tenant_spec(
            events=(
                TenantArrival(minute=1.0, workload=SMALL_E.with_target(300.0)),
                TenantDeparture(minute=3.0, tenant="E"),
            ),
        )
        simulator, context, _ = build_scenario(spec)
        schedule = compile_spec(spec, context)
        schedule.fire_due(60.0)
        assert "workload-E" in simulator.bindings
        new_regions = [r for r in simulator.regions.values() if r.workload == "workload-E"]
        assert len(new_regions) == SMALL_E.partitions
        assert all(r.node is not None for r in new_regions)
        schedule.fire_due(180.0)
        assert "workload-E" not in simulator.bindings
        # Data stays behind, as a dropped client (not a dropped table) would.
        assert all(r.region_id in simulator.regions for r in new_regions)

    def test_mix_shift_interpolates_and_invalidates_kernel_cache(self):
        spec = two_tenant_spec(
            events=(
                MixShift(tenant="A", start_minute=0.0, end_minute=2.0,
                         to_mix=(("update", 1.0),)),
            ),
        )
        simulator, context, _ = build_scenario(spec)
        schedule = compile_spec(spec, context)
        before = simulator._workloads_version
        schedule.fire_due(60.0)
        binding = simulator.bindings["workload-A"]
        assert binding.op_mix["update"] == pytest.approx(0.75)
        assert binding.op_mix["read"] == pytest.approx(0.25)
        assert simulator._workloads_version > before
        schedule.fire_due(120.0)
        assert binding.op_mix == {"update": pytest.approx(1.0)}

    def test_mix_at_returns_ops_in_sorted_order(self):
        # The blended mix's key order flows into update_workload, so it must
        # not follow the op union's hash-seeded set order (lint rule D3).
        shift = MixShift(
            tenant="A",
            start_minute=0.0,
            end_minute=2.0,
            to_mix=tuple((f"op{i:02d}", 1.0) for i in range(10, 20)),
        )
        from_mix = {f"op{i:02d}": 1.0 for i in reversed(range(10))}
        mix = shift.mix_at(1.0, from_mix)
        assert list(mix) == [f"op{i:02d}" for i in range(20)]

    def test_truncated_mix_shift_settles_on_interpolated_mix(self):
        spec = two_tenant_spec(
            duration_minutes=5.0,
            events=(
                MixShift(tenant="A", start_minute=1.0, end_minute=9.0,
                         to_mix=(("update", 1.0),)),
            ),
        )
        simulator, context, _ = build_scenario(spec)
        schedule = compile_spec(spec, context)
        schedule.fire_due(spec.duration_seconds)
        binding = simulator.bindings["workload-A"]
        # Half the shift window elapsed: halfway between 50/50 and 0/100.
        assert binding.op_mix["update"] == pytest.approx(0.75)

    def test_truncated_growth_burst_applies_elapsed_share_only(self):
        from repro.scenarios import DataGrowthBurst
        from repro.scenarios.spec import binding_name

        spec = two_tenant_spec(
            duration_minutes=5.0,
            events=(
                DataGrowthBurst(tenant="A", start_minute=4.0,
                                duration_minutes=4.0, growth_factor=16.0),
            ),
        )
        simulator, context, _ = build_scenario(spec)
        sizes_before = {
            r.region_id: r.size_bytes
            for r in simulator.regions.values()
            if r.workload == binding_name("A")
        }
        schedule = compile_spec(spec, context)
        schedule.fire_due(spec.duration_seconds)
        for region_id, before in sizes_before.items():
            after = simulator.regions[region_id].size_bytes
            # One of four minutes elapsed: 16x ** (1/4) = 2x, not 16x.
            assert after / before == pytest.approx(2.0, rel=1e-9)

    def test_mix_shift_on_tpcc_tenant_is_a_compile_time_error(self):
        """A TPC-C tenant's op mix is transaction-derived: shifting it must
        be rejected when the spec compiles, not silently corrupt the mix."""
        from repro.scenarios.catalog import SMALL_TPCC

        spec = ScenarioSpec(
            name="bad-mix-shift",
            tenants=(SMALL_TPCC.with_target(1500.0),),
            events=(
                MixShift(tenant="tpcc", start_minute=1.0, end_minute=3.0,
                         to_mix=(("update", 1.0),)),
            ),
            duration_minutes=5.0,
        )
        simulator, context, _ = build_scenario(spec)
        mix_before = dict(simulator.bindings["tpcc"].op_mix)
        with pytest.raises(ValueError, match="derived from TPCCTenant"):
            compile_spec(spec, context)
        assert simulator.bindings["tpcc"].op_mix == mix_before

    def test_tpcc_tenant_arrival_and_departure(self):
        """TPC-C tenants churn through scenarios like key-value ones."""
        from repro.workloads.tpcc.schema import TPCCConfig
        from repro.workloads.tpcc.tenant import TPCCTenant

        arriving = TPCCTenant(
            name="tpcc-late",
            config=TPCCConfig(warehouses=4, warehouses_per_node=2, clients=10,
                              scale_factor=0.02),
        )
        spec = two_tenant_spec(
            events=(
                TenantArrival(minute=1.0, workload=arriving.with_target(400.0)),
                TenantDeparture(minute=3.0, tenant="tpcc-late"),
            ),
        )
        simulator, context, _ = build_scenario(spec)
        schedule = compile_spec(spec, context)
        schedule.fire_due(60.0)
        binding = simulator.bindings["tpcc-late"]
        assert binding.target_ops_per_second == 400.0
        new_regions = [
            r for r in simulator.regions.values() if r.workload == "tpcc-late"
        ]
        assert len(new_regions) == arriving.config.partitions
        assert all(r.node is not None for r in new_regions)
        # The TPC-C read skew hints reached the simulator's regions.
        assert all(r.hot_data_fraction == pytest.approx(0.05) for r in new_regions)
        schedule.fire_due(180.0)
        assert "tpcc-late" not in simulator.bindings
        assert all(r.region_id in simulator.regions for r in new_regions)
        # The departed tenant's name still resolves to its own binding name:
        # a growth burst on the orphaned dataset must find the regions, not
        # fall back to the YCSB naming convention and silently grow nothing.
        detail = context.grow_tenant_data("tpcc-late", 2.0)
        assert f"over {arriving.config.partitions} partitions" in detail

    def test_update_workload_rejects_unknown_tenant(self):
        simulator = ClusterSimulator()
        with pytest.raises(SimulationError, match="unknown workload"):
            simulator.update_workload("nope", target_ops_per_second=1.0)

    def test_update_workload_rejects_invalid_mix_without_leaking_it(self):
        spec = two_tenant_spec()
        simulator, _, _ = build_scenario(spec)
        binding = simulator.bindings["workload-A"]
        before = dict(binding.op_mix)
        with pytest.raises(ValueError, match="op mix"):
            simulator.update_workload("workload-A", op_mix={"read": 2.0})
        assert binding.op_mix == before


class TestFaultEvents:
    def test_node_crash_removes_node_and_reassigns(self):
        spec = two_tenant_spec(events=(NodeCrash(minute=1.0),))
        simulator, context, _ = build_scenario(spec)
        schedule = compile_spec(spec, context)
        before = set(simulator.nodes)
        fired = schedule.fire_due(60.0)
        assert [a.label for a in fired] == ["node-crash"]
        victim = fired[0].detail
        assert victim in before
        assert victim not in simulator.nodes
        assert all(r.node != victim for r in simulator.regions.values())
        # The crash is reproducible: same seed picks the same victim.
        sim2, ctx2, _ = build_scenario(spec)
        assert compile_spec(spec, ctx2).fire_due(60.0)[0].detail == victim

    def test_slowdown_and_recovery_roundtrip(self):
        spec = two_tenant_spec(
            events=(NodeSlowdown(minute=1.0, factor=0.5, duration_minutes=1.0),),
        )
        simulator, context, _ = build_scenario(spec)
        healthy_cpu = next(iter(simulator.nodes.values())).hardware.cpu_millis_per_second
        schedule = compile_spec(spec, context)
        fired = schedule.fire_due(60.0)
        victim = fired[0].detail.split(" ", 1)[0]
        degraded = simulator.nodes[victim].hardware.cpu_millis_per_second
        assert degraded == pytest.approx(healthy_cpu * 0.5)
        schedule.fire_due(120.0)
        restored = simulator.nodes[victim].hardware.cpu_millis_per_second
        assert restored == pytest.approx(healthy_cpu)

    def test_degrade_restore_primitive(self):
        simulator = ClusterSimulator()
        name = simulator.add_node()
        original = simulator.nodes[name].hardware
        simulator.degrade_node(name, 0.25)
        assert simulator.nodes[name].hardware.cpu_millis_per_second == pytest.approx(
            original.cpu_millis_per_second * 0.25
        )
        assert simulator.nodes[name].hardware.memory_bytes == original.memory_bytes
        simulator.restore_node(name)
        assert simulator.nodes[name].hardware is original

    def test_recovery_after_victim_vanished_is_a_noop(self):
        """A scheduled recovery must not abort the run when the straggler
        was scaled away (or crashed) before it fired."""
        spec = two_tenant_spec(
            events=(NodeSlowdown(minute=1.0, factor=0.5, duration_minutes=1.0),),
        )
        simulator, context, _ = build_scenario(spec)
        schedule = compile_spec(spec, context)
        fired = schedule.fire_due(60.0)
        victim = fired[0].detail.split(" ", 1)[0]
        simulator.remove_node(victim)
        recovery = schedule.fire_due(120.0)
        assert [a.label for a in recovery] == ["node-recovery"]
        assert victim not in simulator.nodes

    def test_degrade_rejects_bad_factor(self):
        simulator = ClusterSimulator()
        name = simulator.add_node()
        with pytest.raises(SimulationError):
            simulator.degrade_node(name, 0.0)
        with pytest.raises(SimulationError):
            simulator.degrade_node(name, 1.5)

    def test_recover_crashed_node_rejoins_and_relaunches_vm(self):
        from repro.core.backends import SimulatorBackend
        from repro.hbase.config import DEFAULT_HOMOGENEOUS

        simulator = ClusterSimulator()
        simulator.add_node()
        backend = SimulatorBackend(simulator)
        name = backend.add_node(DEFAULT_HOMOGENEOUS, "default")
        simulator.run(simulator.boot_seconds + simulator.clock.tick_seconds)
        context = ScenarioContext(simulator)
        assert context.crash_node(name) == name
        assert simulator.crashed_nodes == [name]
        assert name not in simulator.nodes
        recovered = context.recover_crashed_node()
        assert recovered == name
        assert simulator.crashed_nodes == []
        # The node is the VM: it rejoins under its name and boots afresh.
        assert name in simulator.nodes
        assert not simulator.nodes[name].online  # boots first
        simulator.run(simulator.boot_seconds + simulator.clock.tick_seconds)
        assert simulator.nodes[name].online

    def test_recover_crashed_straggler_rejoins_at_full_health(self):
        simulator = ClusterSimulator()
        name = simulator.add_node()
        healthy = simulator.nodes[name].hardware
        simulator.degrade_node(name, 0.5)
        simulator.fail_node(name)
        simulator.rejoin_node(name)
        assert simulator.nodes[name].hardware == healthy

    def test_recover_without_crash_raises_but_event_is_tolerant(self):
        spec = two_tenant_spec(events=(NodeRecovery(minute=1.0),))
        simulator, context, _ = build_scenario(spec)
        with pytest.raises(SimulationError, match="has not crashed"):
            simulator.rejoin_node("rs-1")
        # The scheduled event becomes a no-op instead of aborting the run.
        schedule = compile_spec(spec, context)
        fired = schedule.fire_due(60.0)
        assert [a.label for a in fired] == ["node-rejoin"]
        assert fired[0].detail == "no crashed node"
        # A *named* rejoin of a healthy node is equally tolerant.
        assert context.recover_crashed_node("rs-1") == "rs-1 not crashed"

    def test_named_fault_on_an_absent_node_is_a_noop(self):
        """A storm pinned to rs-4 runs on a three-node cluster: the slowdown
        of the missing node, and its recovery, are annotated no-ops."""
        from repro.campaign.grid import ScaleSpec, apply_scale

        spec = apply_scale(
            CANNED_SCENARIOS["multi_fault_storm"], ScaleSpec("3n", initial_nodes=3)
        )
        result = run_scenario(spec, "none")
        assert result.simulator.clock.now == pytest.approx(spec.duration_minutes * 60.0)
        fired = [(a.label, a.detail) for a in result.run.annotations]
        assert ("node-slowdown", "rs-4 not in cluster") in fired
        assert fired.count(("node-recovery", "no victim")) == 1
        # A named crash of an absent node is as tolerant.
        simulator, context, _ = build_scenario(spec)
        assert context.crash_node("rs-9") == "rs-9 not in cluster"
        assert simulator.crashed_nodes == []

    @staticmethod
    def _run_to_the_end(scenario, controller, nodes):
        from repro.campaign.grid import ScaleSpec, apply_scale

        spec = apply_scale(
            CANNED_SCENARIOS[scenario], ScaleSpec(f"{nodes}n", initial_nodes=nodes)
        )
        result = run_scenario(spec, controller)
        assert result.simulator.clock.now == pytest.approx(spec.duration_minutes * 60.0)
        return result

    @pytest.mark.parametrize("controller", CONTROLLERS)
    @pytest.mark.parametrize("scenario", sorted(CANNED_SCENARIOS))
    def test_every_scenario_completes_on_one_node(self, scenario, controller):
        """Once the only node is down, an anonymous fault finds no victim:
        it is an annotated no-op, never an aborted run."""
        result = self._run_to_the_end(scenario, controller, nodes=1)
        if (scenario, controller) == ("node_fault", "none"):
            fired = [(a.label, a.detail) for a in result.run.annotations]
            assert ("node-slowdown", "no online node") in fired
            assert ("node-recovery", "no victim") in fired

    @pytest.mark.parametrize("nodes", [2, 3])
    @pytest.mark.parametrize("controller", CONTROLLERS)
    @pytest.mark.parametrize("scenario", sorted(CANNED_SCENARIOS))
    def test_every_scenario_completes_on_two_or_three_nodes(
        self, scenario, controller, nodes
    ):
        """The rest of the degenerate-scale sweep: every canned scenario,
        storms and cascades included, runs to its end on two and three
        nodes under every controller."""
        self._run_to_the_end(scenario, controller, nodes)

    def test_crash_recover_crash_cascade(self):
        """The cascading-failure primitive: a second crash lands while the
        first victim is still booting back."""
        spec = two_tenant_spec(
            duration_minutes=8.0,
            events=(
                NodeCrash(minute=1.0),
                NodeRecovery(minute=2.0),
                NodeCrash(minute=3.0),
            ),
        )
        result = run_scenario(spec, controller="none")
        labels = [a.label for a in result.run.annotations]
        assert labels.count("node-crash") == 2
        assert labels.count("node-rejoin") == 1
        # Started with 3: -1 crash, +1 rejoin, -1 crash = 2 online at the end.
        assert result.final_nodes == 2

    def test_network_only_slowdown_leaves_cpu_and_disk_budgets(self):
        spec = two_tenant_spec(
            events=(
                NodeSlowdown(minute=1.0, factor=1.0, network_factor=0.2),
            ),
        )
        simulator, context, _ = build_scenario(spec)
        healthy = next(iter(simulator.nodes.values())).hardware
        schedule = compile_spec(spec, context)
        fired = schedule.fire_due(60.0)
        victim = fired[0].detail.split(" ", 1)[0]
        degraded = simulator.nodes[victim].hardware
        assert degraded.network_mb_per_second == pytest.approx(
            healthy.network_mb_per_second * 0.2
        )
        assert degraded.cpu_millis_per_second == healthy.cpu_millis_per_second
        assert degraded.disk_iops == healthy.disk_iops
        assert degraded.disk_mb_per_second == healthy.disk_mb_per_second

    def test_network_degradation_shifts_the_bottleneck(self):
        """The cost model pins a scan-heavy node on its (degraded) network."""
        from repro.hbase.config import DEFAULT_HOMOGENEOUS
        from repro.simulation.hardware import HardwareSpec
        from repro.simulation.perfmodel import NodeEvaluator
        from perfmodel_oracle import RegionLoadProfile, bottleneck_resource, evaluate

        region = RegionLoadProfile(
            region_id="r", size_bytes=512 * 1024 * 1024, scan_rate=120.0,
        )
        config = DEFAULT_HOMOGENEOUS.validate()
        healthy_hw = HardwareSpec()
        degraded_hw = HardwareSpec(network_mb_per_second=110.0 * 0.1)
        healthy = evaluate(NodeEvaluator(healthy_hw, config, [region]), [region])
        degraded = evaluate(NodeEvaluator(degraded_hw, config, [region]), [region])
        bottleneck = bottleneck_resource(
            degraded.cpu_utilization, degraded.io_wait, degraded.network_utilization
        )
        assert bottleneck == "network"
        assert degraded.utilization > healthy.utilization


class TestHarnessScheduleIntegration:
    def test_annotations_recorded_per_event(self):
        spec = CANNED_SCENARIOS["tenant_churn"]
        result = run_scenario(spec, controller="none")
        labels = [a.label for a in result.run.annotations]
        assert "tenant-arrival:E" in labels
        assert "tenant-departure:E" in labels
        arrival = next(a for a in result.run.annotations if "arrival" in a.label)
        assert arrival.minute == pytest.approx(2.5)

    def test_annotation_minute_is_the_scheduled_time(self):
        """Even with a tick that does not divide the event time."""
        from dataclasses import replace

        spec = replace(CANNED_SCENARIOS["tenant_churn"], tick_seconds=7.0)
        result = run_scenario(spec, controller="none")
        arrival = next(a for a in result.run.annotations if "arrival" in a.label)
        assert arrival.minute == pytest.approx(2.5)

    def test_uncontrolled_run_tracks_load_curve(self):
        spec = CANNED_SCENARIOS["diurnal"]
        result = run_scenario(spec, controller="none")
        throughputs = [p.throughput for p in result.run.series]
        # The sinusoid must actually modulate achieved throughput.
        assert max(throughputs) > 1.1 * min(t for t in throughputs if t > 0)

    def test_run_scenario_rejects_unknown_controller(self):
        with pytest.raises(ValueError, match="unknown controller"):
            run_scenario(two_tenant_spec(), controller="magic")


class TestSweepHygiene:
    """Satellite fix: batch runs must not pin simulators alive.

    ``keep_simulator=False`` severs the simulator's internal reference
    cycles (``region._owner`` back-references, the solver's simulator
    handle), and MeT keeps no cycle of its own (it sees a plan finish by
    polling its actuator), so each discarded run frees by *refcount* alone.  With the cycle collector switched off, a
    sweep that leaked would accumulate one ClusterSimulator per run -- the
    bug that made long campaign sweeps balloon before this fix.
    """

    def test_fifty_discarded_runs_leave_no_live_simulators(self):
        import gc

        spec = ScenarioSpec(
            name="hygiene",
            tenants=(SMALL_A.with_target(1500.0),),
            duration_minutes=1.0,
            initial_nodes=2,
            max_nodes=3,
        )
        gc.collect()
        gc.disable()
        try:
            for _ in range(50):
                run_scenario(spec, controller="met", keep_simulator=False)
            live = [
                obj for obj in gc.get_objects()
                if isinstance(obj, ClusterSimulator)
            ]
            assert len(live) <= 1, (
                f"{len(live)} simulators still alive after 50 discarded "
                "runs: a reference cycle is pinning them (dispose() "
                "regressed or a controller grew a cycle)"
            )
        finally:
            gc.enable()
            gc.collect()

    def test_kept_simulator_still_works(self):
        spec = two_tenant_spec(duration_minutes=1.0)
        result = run_scenario(spec, controller="none")  # keep_simulator=True
        assert result.simulator is not None
        result.simulator.tick()  # still usable: dispose() must not have run
