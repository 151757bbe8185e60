"""Regression tests: the solver matches the seed (reference) oracle.

Runs a mixed multi-tenant YCSB scenario -- region moves, node
reconfiguration, major compactions, node add/remove and tenant shutdown
mid-run -- on the solver and on the test oracles of
``tests/solver_oracles.py`` and asserts the per-binding throughput series
agree within 1e-6 relative tolerance.
"""

import math

import pytest

from repro.core.profiles import NODE_PROFILES
from repro.hbase.config import DEFAULT_HOMOGENEOUS
from repro.simulation.cluster import ClusterSimulator
from repro.simulation.hardware import HardwareSpec, LARGE_NODE
from repro.simulation.perfmodel import (
    NodeEvaluator,
    PerformanceModel,
    RegionLoadProfile,
)
from repro.simulation.solvers import EventSolver
from repro.workloads import CORE_WORKLOADS, materialise_tenants
from solver_oracles import (
    NoReuseSolver,
    ReferenceSolver,
    assert_context_fresh,
    assert_identical_metrics,
    installed,
)

#: Acceptance bound: the solver and the seed oracle must agree to this
#: relative tolerance on every sample of every per-binding throughput series.
REL_TOL = 1e-6
#: Absolute floor for samples damping towards zero after tenant shutdown.
ABS_TOL = 1e-6


def build_scenario(solver=EventSolver) -> tuple[ClusterSimulator, list[str]]:
    with installed(solver):
        sim = ClusterSimulator(tick_seconds=5.0)
    nodes = [sim.add_node() for _ in range(6)]
    expected = materialise_tenants(sim, CORE_WORKLOADS.values())
    for index, partition in enumerate(expected):
        node = nodes[index % len(nodes)]
        region = sim.regions[partition.partition_id]
        region.node = node
        region.block_homes = {node}
    return sim, nodes


def drive(sim: ClusterSimulator, nodes: list[str]) -> dict[str, list[float]]:
    """60 ticks with topology churn at fixed points; returns throughput series."""
    first_region = next(iter(sim.regions))
    events = {
        4: lambda: sim.move_region(first_region, nodes[1]),
        7: lambda: sim.major_compact(nodes[1]),
        10: lambda: sim.reconfigure_node(
            nodes[2], NODE_PROFILES["read"].config, profile_name="read"
        ),
        14: lambda: sim.add_node(name="rs-extra", online=False),
        20: lambda: sim.set_workload_active("workload-E", False),
        26: lambda: sim.remove_node(nodes[3]),
        32: lambda: sim.reconfigure_node(
            nodes[4], NODE_PROFILES["write"].config, drain=False
        ),
        40: lambda: sim.move_region(first_region, nodes[0]),
    }
    series: dict[str, list[float]] = {name: [] for name in sim.bindings}
    for tick in range(60):
        action = events.get(tick)
        if action is not None:
            action()
        sim.tick()
        for name in sim.bindings:
            series[name].append(sim.binding_throughput(name))
    return series


class TestKernelEquivalence:
    def test_mixed_scenario_throughput_series_match(self):
        fast_sim, fast_nodes = build_scenario(NoReuseSolver)
        reference_sim, reference_nodes = build_scenario(ReferenceSolver)
        assert fast_nodes == reference_nodes

        fast = drive(fast_sim, fast_nodes)
        reference = drive(reference_sim, reference_nodes)

        assert set(fast) == set(reference)
        for name in reference:
            for tick, (optimized, seed) in enumerate(zip(fast[name], reference[name])):
                assert math.isclose(
                    optimized, seed, rel_tol=REL_TOL, abs_tol=ABS_TOL
                ), f"{name} diverged at tick {tick}: {optimized} vs {seed}"

    def test_assignments_and_counters_match(self):
        fast_sim, fast_nodes = build_scenario(NoReuseSolver)
        reference_sim, reference_nodes = build_scenario(ReferenceSolver)
        drive(fast_sim, fast_nodes)
        drive(reference_sim, reference_nodes)

        assert fast_sim.assignment() == reference_sim.assignment()
        for region_id, reference_region in reference_sim.regions.items():
            fast_region = fast_sim.regions[region_id]
            assert fast_region.reads == pytest.approx(reference_region.reads, rel=REL_TOL)
            assert fast_region.writes == pytest.approx(
                reference_region.writes, rel=REL_TOL
            )
            assert fast_region.block_homes == reference_region.block_homes
        assert fast_sim.total_ops == pytest.approx(reference_sim.total_ops, rel=REL_TOL)

    def test_node_metrics_match(self):
        fast_sim, fast_nodes = build_scenario(NoReuseSolver)
        reference_sim, _ = build_scenario(ReferenceSolver)
        drive(fast_sim, fast_nodes)
        drive(reference_sim, fast_nodes)
        for name, reference_node in reference_sim.nodes.items():
            fast_node = fast_sim.nodes[name]
            assert fast_node.cpu_utilization == pytest.approx(
                reference_node.cpu_utilization, rel=1e-9, abs=1e-9
            )
            assert fast_node.io_wait == pytest.approx(
                reference_node.io_wait, rel=1e-9, abs=1e-9
            )
            assert fast_node.served_ops == pytest.approx(
                reference_node.served_ops, rel=REL_TOL, abs=ABS_TOL
            )


class TestNodeEvaluatorEquivalence:
    """NodeEvaluator.evaluate must match PerformanceModel.evaluate_node."""

    @pytest.mark.parametrize("hardware", [HardwareSpec(), LARGE_NODE])
    @pytest.mark.parametrize(
        "config",
        [DEFAULT_HOMOGENEOUS, NODE_PROFILES["read"].config, NODE_PROFILES["scan"].config],
    )
    def test_matches_evaluate_node(self, hardware, config):
        model = PerformanceModel(hardware)
        profiles = [
            RegionLoadProfile(
                region_id="r1",
                size_bytes=1.5e9,
                read_rate=1200.0,
                update_rate=300.0,
                scan_rate=10.0,
            ),
            RegionLoadProfile(
                region_id="r2",
                size_bytes=4e8,
                locality=0.05,
                insert_rate=250.0,
                rmw_rate=40.0,
            ),
            RegionLoadProfile(region_id="r3", size_bytes=9e8, scan_length=120),
        ]
        expected = model.evaluate_node(config, profiles, 2e6)
        actual = NodeEvaluator(model, config, profiles).evaluate(profiles, 2e6)
        assert actual.utilization == pytest.approx(expected.utilization, rel=1e-12)
        assert actual.cpu_utilization == pytest.approx(expected.cpu_utilization, rel=1e-12)
        assert actual.io_wait == pytest.approx(expected.io_wait, rel=1e-12)
        assert actual.memory_utilization == pytest.approx(
            expected.memory_utilization, rel=1e-12
        )
        assert actual.hit_ratio == pytest.approx(expected.hit_ratio, rel=1e-12)
        for op, latency in expected.per_op_latency_ms.items():
            assert actual.per_op_latency_ms[op] == pytest.approx(latency, rel=1e-12)

    def test_refresh_tracks_size_and_locality_drift(self):
        model = PerformanceModel(HardwareSpec())
        profile = RegionLoadProfile(region_id="r", size_bytes=1e9, read_rate=500.0)
        evaluator = NodeEvaluator(model, DEFAULT_HOMOGENEOUS, [profile])
        profile.size_bytes = 2.5e9
        profile.locality = 0.05
        evaluator.refresh([profile])
        expected = model.evaluate_node(DEFAULT_HOMOGENEOUS, [profile])
        actual = evaluator.evaluate([profile])
        assert actual.utilization == pytest.approx(expected.utilization, rel=1e-12)
        assert actual.hit_ratio == pytest.approx(expected.hit_ratio, rel=1e-12)
        assert actual.memory_utilization == pytest.approx(
            expected.memory_utilization, rel=1e-12
        )


class TestEventKernelEquivalence:
    """The solver matches its reuse-disabled twin on the churn scenario.

    Driven tick by tick (the churn scenario's insert-bearing tenants never
    allow reuse anyway), this pins the solver's dispatch, dirty-flag
    handling and caching to the always-solving numbers under region moves,
    compactions, reconfigurations and node churn.
    """

    def test_mixed_scenario_throughput_series_match(self):
        fast_sim, fast_nodes = build_scenario(NoReuseSolver)
        event_sim, event_nodes = build_scenario()
        assert fast_nodes == event_nodes

        fast = drive(fast_sim, fast_nodes)
        event = drive(event_sim, event_nodes)

        assert set(fast) == set(event)
        for name in fast:
            for tick, (optimized, twin) in enumerate(zip(fast[name], event[name])):
                assert math.isclose(
                    optimized, twin, rel_tol=REL_TOL, abs_tol=ABS_TOL
                ), f"{name} diverged at tick {tick}: {optimized} vs {twin}"
        assert event_sim.assignment() == fast_sim.assignment()


#: Per-tenant op mixes of the large cluster: two inserting tenants keep
#: every tick a real solve; the others cover update, scan and
#: read-modify-write costs.
LARGE_MIXES = (
    {"read": 0.9, "insert": 0.1},
    {"read": 0.5, "update": 0.5},
    {"scan": 0.9, "insert": 0.1},
    {"read": 0.5, "read_modify_write": 0.3, "update": 0.2},
)


def build_large(solver=EventSolver) -> tuple[ClusterSimulator, list[str]]:
    """8 nodes, 96 regions, 4 tenants: above VECTOR_MIN_REGIONS."""
    from repro.simulation.workload import WorkloadBinding

    with installed(solver):
        sim = ClusterSimulator(tick_seconds=5.0)
    nodes = [sim.add_node() for _ in range(8)]
    per_tenant = 24
    for tenant, mix in enumerate(LARGE_MIXES):
        name = f"tenant-{tenant}"
        ids = [f"t{tenant}:r{index}" for index in range(per_tenant)]
        for index, region_id in enumerate(ids):
            sim.add_region(
                region_id,
                name,
                2e8 + 1e7 * ((7 * index + tenant) % 23),
                node=nodes[(index + tenant) % len(nodes)],
                scan_length=50 + 10 * tenant,
            )
        weight = 1.0 / per_tenant
        weights = {region_id: weight for region_id in ids}
        weights[ids[-1]] = 1.0 - weight * (per_tenant - 1)
        sim.attach_workload(
            WorkloadBinding(
                name=name,
                threads=30 + 10 * tenant,
                op_mix=mix,
                region_weights=weights,
                scan_length=50 + 10 * tenant,
            )
        )
    return sim, nodes


def drive_large(
    sim: ClusterSimulator, nodes: list[str], after_tick=None
) -> dict[str, list[float]]:
    """40 ticks with moves, a reconfigure, a crash, a compaction and a disk
    slowdown; returns per-binding throughput and latency series plus node
    CPU.  ``after_tick()``, if given, runs after every tick."""
    events = {
        3: lambda: sim.move_region("t0:r0", nodes[5]),
        8: lambda: sim.reconfigure_node(
            nodes[2], NODE_PROFILES["read"].config, profile_name="read"
        ),
        15: lambda: sim.fail_node(nodes[6]),
        22: lambda: sim.move_region("t2:r3", nodes[1]),
        28: lambda: sim.major_compact(nodes[1]),
        32: lambda: sim.degrade_node(nodes[3], disk=0.5),
        36: lambda: sim.restore_node(nodes[3]),
    }
    series: dict[str, list[float]] = {}
    for tick in range(40):
        action = events.get(tick)
        if action is not None:
            action()
        sim.tick()
        if after_tick is not None:
            after_tick()
        for name in sim.bindings:
            series.setdefault(f"{name}:throughput", []).append(sim.binding_throughput(name))
            series.setdefault(f"{name}:latency", []).append(sim.binding_latency_ms(name))
        for name, node in sim.nodes.items():
            series.setdefault(f"{name}:cpu", []).append(node.cpu_utilization)
    return series


class TestVectorLoop:
    """The vector loop matches the scalar loop and the seed oracle.

    Catalog clusters stay below ``VECTOR_MIN_REGIONS``, so this forces each
    loop on a 96-region cluster by moving the threshold.
    """

    def _run(self, monkeypatch, threshold: int, solver=EventSolver):
        from repro.simulation import solvers

        passes = []
        real_pass = EventSolver._vector_pass

        def counting_pass(self, *args):
            passes.append(1)
            return real_pass(self, *args)

        with monkeypatch.context() as patch:
            patch.setattr(solvers, "VECTOR_MIN_REGIONS", threshold)
            patch.setattr(EventSolver, "_vector_pass", counting_pass)
            sim, nodes = build_large(solver)
            return drive_large(sim, nodes), len(passes)

    def _assert_close(self, left, right, rel_tol, label):
        assert set(left) == set(right)
        for key, values in right.items():
            assert len(left[key]) == len(values)
            for tick, (a, b) in enumerate(zip(left[key], values)):
                assert math.isclose(a, b, rel_tol=rel_tol, abs_tol=1e-12), (
                    f"{label}: {key} diverged at tick {tick}: {a} vs {b}"
                )

    def test_vector_matches_scalar_and_reference(self, monkeypatch):
        import sys

        vector, vector_passes = self._run(monkeypatch, 0)
        scalar, scalar_passes = self._run(monkeypatch, sys.maxsize)
        reference, _ = self._run(monkeypatch, 0, ReferenceSolver)
        assert vector_passes > 0, "the vector loop never ran"
        assert scalar_passes == 0, "the scalar run took the vector loop"
        self._assert_close(vector, scalar, 1e-9, "vector vs scalar")
        self._assert_close(vector, reference, REL_TOL, "vector vs reference")
        self._assert_close(scalar, reference, REL_TOL, "scalar vs reference")

    @pytest.mark.parametrize("loop", ["scalar", "vector"])
    def test_cached_solve_context_matches_a_fresh_build(self, monkeypatch, loop):
        """Runtime twin of lint rule D4: after every tick of the churn run
        the cached solve context equals, bit for bit, one built from
        scratch.  Both loops trust the (workloads, structure) signature for
        their evaluators, node list and binding structures, so a mutator
        that changes locality, config or hardware without bumping it leaves
        a stale entry and fails here.  ``NoReuseSolver`` shares the cache,
        so the soak cannot see that."""
        import sys

        from repro.simulation import solvers

        threshold = 0 if loop == "vector" else sys.maxsize
        monkeypatch.setattr(solvers, "VECTOR_MIN_REGIONS", threshold)
        sim, nodes = build_large()
        reused = []
        drive_large(sim, nodes, after_tick=lambda: reused.append(assert_context_fresh(sim)))
        assert len(reused) == 40
        assert all(reused), "a check saw a rebuilt context, not the cached one"
        assert (sim._solver._context.vector is not None) == (loop == "vector")

    def test_fast_forward_is_byte_identical_at_vector_size(self):
        """Macro-ticks replay a vector-loop solution exactly as ticking does."""
        twins = []
        for solver in (EventSolver, NoReuseSolver):
            sim, nodes = build_large(solver)
            for name in [n for n in sim.bindings if "insert" in sim.bindings[n].op_mix]:
                sim.update_workload(name, op_mix={"read": 0.9, "update": 0.1})
            sim.move_region("t0:r0", nodes[5])
            twins.append(sim)
        fast_forwarded, ticked = twins
        fast_forwarded.run(1800.0)
        for _ in range(360):
            ticked.tick()
        assert len(fast_forwarded.regions) >= 64
        assert fast_forwarded.stats.skipped_ticks > 300, "fast-forward never engaged"
        assert ticked.stats.solves == 360
        for key, series in ticked.metrics.items():
            twin = fast_forwarded.metrics.series(*key)
            assert twin.timestamps == series.timestamps, f"timestamps differ for {key}"
            assert twin.values == series.values, f"values differ for {key}"


def _build_quiet_pair(r0_bytes: float = 5e8):
    """Insert-free steady twins (solver + reuse-disabled twin): quiescent
    once settled.  Twelve regions of 5e8 B, except ``r0`` of ``r0_bytes``."""
    from repro.simulation.workload import WorkloadBinding

    sims = []
    for solver in (EventSolver, NoReuseSolver):
        with installed(solver):
            sim = ClusterSimulator(tick_seconds=5.0)
        nodes = [sim.add_node() for _ in range(4)]
        for index in range(12):
            size = r0_bytes if index == 0 else 5e8
            sim.add_region(f"r{index}", "tenant", size, node=nodes[index % 4])
        weight = 1.0 / 12
        weights = {f"r{index}": weight for index in range(12)}
        weights["r11"] = 1.0 - weight * 11
        sim.attach_workload(
            WorkloadBinding(
                name="tenant",
                threads=40,
                op_mix={"read": 0.7, "update": 0.3},
                region_weights=weights,
            )
        )
        sims.append(sim)
    return sims[0], sims[1]


def _assert_series_match(event_sim, fast_sim):
    """Every recorded metric series agrees within the acceptance tolerance."""
    event_keys = {key for key, _ in event_sim.metrics.items()}
    fast_keys = {key for key, _ in fast_sim.metrics.items()}
    assert event_keys == fast_keys
    for key, series in fast_sim.metrics.items():
        twin = event_sim.metrics.series(*key)
        assert twin.timestamps == series.timestamps, f"timestamps differ for {key}"
        assert len(twin.values) == len(series.values)
        for tick, (a, b) in enumerate(zip(twin.values, series.values)):
            assert math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL), (
                f"{key} diverged at sample {tick}: {a} vs {b}"
            )


class TestQuiescenceAdversarial:
    """Fast-forwarding must stop for anything that changes the solution.

    Each case runs the solver through :meth:`ClusterSimulator.run`
    (macro-ticks engaged) against a reuse-disabled twin ticked one by one, and
    requires every metric series to agree -- so an event swallowed by a
    skipped stretch, or a skip overshooting a state transition, fails the
    test rather than silently warping the trace.
    """

    def test_node_boot_completes_mid_skip(self):
        event_sim, fast_sim = _build_quiet_pair()
        event_sim.run(300.0)
        for _ in range(60):
            fast_sim.tick()
        # Boot completion (90 s = 18 ticks in) lands inside the quiet
        # stretch; the NODE_ONLINE event must bound the macro-tick.
        event_sim.add_node(name="late", online=False)
        fast_sim.add_node(name="late", online=False)
        event_sim.run(600.0)
        for _ in range(120):
            fast_sim.tick()
        assert event_sim.stats.skipped_ticks > 0, "fast-forward never engaged"
        assert event_sim.nodes["late"].state == fast_sim.nodes["late"].state
        _assert_series_match(event_sim, fast_sim)

    def test_back_to_back_boots_one_tick_apart(self):
        event_sim, fast_sim = _build_quiet_pair()
        event_sim.run(300.0)
        for _ in range(60):
            fast_sim.tick()
        for sim in (event_sim, fast_sim):
            sim.add_node(name="late-a", online=False)
        event_sim.run(5.0)
        fast_sim.tick()
        # Second boot starts one tick later: completions land on adjacent
        # ticks, leaving no room to skip between them.
        for sim in (event_sim, fast_sim):
            sim.add_node(name="late-b", online=False)
        event_sim.run(595.0)
        for _ in range(119):
            fast_sim.tick()
        assert event_sim.stats.skipped_ticks > 0
        _assert_series_match(event_sim, fast_sim)

    def test_compaction_drains_during_quiet_stretch(self):
        # A 5e8 B drain takes ~2 ticks: it ends inside the horizon's margin.
        self._compaction_drains(5e8)

    def test_long_compaction_drains_during_quiet_stretch(self):
        # A 5e9 B drain takes ~19 ticks: only the compaction term of the
        # horizon keeps a macro-tick from draining past the completion.
        self._compaction_drains(5e9)

    @staticmethod
    def _compaction_drains(r0_bytes: float):
        event_sim, fast_sim = _build_quiet_pair(r0_bytes)
        event_sim.run(300.0)
        for _ in range(60):
            fast_sim.tick()
        # Make r0 remote on rs-2, then compact: the drain runs as constant
        # background I/O (reusable) until the completion flips r0 local --
        # a structure change the skip must not jump over.
        for sim in (event_sim, fast_sim):
            sim.move_region("r0", "rs-2")
            assert sim.major_compact("rs-2") > 0
        event_sim.run(900.0)
        for _ in range(180):
            fast_sim.tick()
        assert event_sim.stats.skipped_ticks > 0
        assert event_sim.regions["r0"].locality == fast_sim.regions["r0"].locality == 1.0
        assert event_sim.nodes["rs-2"].pending_compaction_bytes == 0.0
        _assert_series_match(event_sim, fast_sim)

    def test_disk_degrade_mid_drain_moves_the_horizon(self):
        """A disk fault halves a running compaction's drain rate: the
        horizon follows the new completion time, so skipping resumes at
        once instead of stalling on the pre-fault completion estimate."""
        event_sim, fast_sim = _build_quiet_pair(1e10)
        event_sim.run(300.0)
        for _ in range(60):
            fast_sim.tick()
        for sim in (event_sim, fast_sim):
            sim.move_region("r0", "rs-2")
            sim.major_compact("rs-2")

        def advance(ticks: int) -> int:
            before = event_sim.stats.skipped_ticks
            event_sim.run(5.0 * ticks)
            for _ in range(ticks):
                fast_sim.tick()
            return event_sim.stats.skipped_ticks - before

        advance(10)
        for sim in (event_sim, fast_sim):
            sim.degrade_node("rs-2", disk=0.5)
        degraded = advance(40)
        for sim in (event_sim, fast_sim):
            sim.restore_node("rs-2")
        advance(100)
        # The pre-fault completion estimate (~38 full-rate ticks after the
        # compaction started) falls 26 ticks into the degraded window; a
        # horizon stuck on it would skip fewer than 26 of these 40 ticks.
        assert degraded >= 32, f"only {degraded} of 40 degraded ticks skipped"
        assert event_sim.nodes["rs-2"].pending_compaction_bytes == 0.0
        assert event_sim.regions["r0"].locality == fast_sim.regions["r0"].locality == 1.0
        assert_identical_metrics(event_sim, fast_sim)

    def test_restart_boundary_misaligned_with_run_window(self):
        """A reconfiguration restart whose completion is not a multiple of
        the run() window: the skip must stop at the restart boundary even
        when the caller's run windows straddle it."""
        event_sim, fast_sim = _build_quiet_pair()
        event_sim.run(300.0)
        for _ in range(60):
            fast_sim.tick()
        for sim in (event_sim, fast_sim):
            sim.reconfigure_node("rs-3", NODE_PROFILES["read"].config, profile_name="read")
        # Uneven windows (175 s = 35 ticks) interleave with the restart
        # completion; chunked and monolithic advancement must agree.
        for _ in range(4):
            event_sim.run(175.0)
        for _ in range(140):
            fast_sim.tick()
        assert event_sim.stats.skipped_ticks > 0
        _assert_series_match(event_sim, fast_sim)
