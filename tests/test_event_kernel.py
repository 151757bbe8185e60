"""Solver-reuse regressions: dirty flags, fast-forward fidelity.

Two layers of guarantees:

* *conservative quiescence*: every simulator mutation forces a real solve
  on the next tick (the dirty-flag inventory in PERFORMANCE.md);
* *fast-forward fidelity*: a stretch covered by macro-ticks produces
  byte-identical metric series, samples and machine-minutes to the same
  stretch simulated tick by tick -- at the simulator level and through the
  experiment harness (skipped intervals must not drop, duplicate or shift
  samples).
"""

import pytest

from repro.core.backends import SimulatorBackend
from repro.elasticity.daemon import HBaseBalancerDaemon
from repro.experiments.harness import ExperimentHarness
from repro.scenarios.schedule import EventSchedule, ScheduledAction
from repro.simulation.cluster import ClusterSimulator, SimulationError
from repro.simulation.solvers import EventSolver
from repro.simulation.workload import WorkloadBinding
from solver_oracles import NoReuseSolver, assert_identical_metrics, installed, probe_nodes


#: A tick length binary floats cannot represent: the clock's float
#: accumulation is the only way a fast-forwarded run can land on the
#: instants a tick-by-tick run reaches.
INEXACT_TICK = 0.7


def build_steady(
    solver=EventSolver, nodes: int = 4, regions: int = 12, tick_seconds: float = 5.0
) -> ClusterSimulator:
    """Insert-free multi-region cluster: quiescent once the loop settles."""
    with installed(solver):
        sim = ClusterSimulator(tick_seconds=tick_seconds)
    names = [sim.add_node() for _ in range(nodes)]
    for index in range(regions):
        sim.add_region(f"r{index}", "tenant", 5e8, node=names[index % nodes])
    weight = 1.0 / regions
    weights = {f"r{index}": weight for index in range(regions)}
    weights[f"r{regions - 1}"] = 1.0 - weight * (regions - 1)
    sim.attach_workload(
        WorkloadBinding(
            name="tenant",
            threads=40,
            op_mix={"read": 0.7, "update": 0.3},
            region_weights=weights,
        )
    )
    return probe_nodes(sim)


class TestSolutionReuse:
    def test_steady_cluster_stops_solving(self):
        sim = build_steady()
        for _ in range(10):
            sim.tick()
        # The closed loop needs a couple of ticks to become tick-stable;
        # after that every tick replays the cached fixed point.
        assert sim.stats.solves <= 3
        assert sim.stats.reused_ticks >= 7

    def test_insert_traffic_blocks_reuse(self):
        sim = build_steady()
        sim.attach_workload(
            WorkloadBinding(
                name="grower",
                threads=10,
                op_mix={"read": 0.5, "insert": 0.5},
                region_weights={"r0": 1.0},
            )
        )
        for _ in range(10):
            sim.tick()
        # Inserts grow region sizes every tick: data growth is a permanent
        # dirty flag, so every tick is a real solve.
        assert sim.stats.solves == sim.stats.ticks

    @pytest.mark.parametrize(
        "mutate",
        [
            pytest.param(
                lambda sim: sim.attach_workload(
                    WorkloadBinding(
                        name="arrival", threads=5, op_mix={"read": 1.0}, region_weights={"r0": 1.0}
                    )
                ),
                id="attach_workload",
            ),
            pytest.param(lambda sim: sim.update_workload("tenant", threads=60), id="update_workload"),
            pytest.param(lambda sim: sim.notify_workload_changed(), id="notify_workload_changed"),
            pytest.param(lambda sim: sim.detach_workload("tenant"), id="detach_workload"),
            pytest.param(lambda sim: sim.move_region("r0", "rs-2"), id="move_region"),
            pytest.param(lambda sim: sim.add_node(), id="add_node"),
            pytest.param(lambda sim: sim.remove_node("rs-4"), id="remove_node"),
            pytest.param(lambda sim: sim.degrade_node("rs-1", disk=0.5), id="degrade_node"),
            pytest.param(lambda sim: sim.invalidate_solution(), id="invalidate_solution"),
            pytest.param(
                lambda sim: setattr(sim.regions["r0"], "block_homes", {"rs-1", "rs-2"}),
                id="direct_block_homes_write",
            ),
            pytest.param(
                lambda sim: setattr(sim.regions["r0"], "node", "rs-2"),
                id="direct_node_write",
            ),
        ],
    )
    def test_mutation_forces_resolve(self, mutate):
        sim = build_steady()
        for _ in range(5):
            sim.tick()
        settled = sim.stats.solves
        sim.tick()
        assert sim.stats.solves == settled, "steady tick should reuse, not solve"
        mutate(sim)
        sim.tick()
        assert sim.stats.solves == settled + 1, (
            "mutation must dirty the cached solution and force a real solve"
        )


class TestMacroTickEquivalence:
    """Satellite regression: skipped stretches sample identically.

    A fast-forwarded interval must yield the same per-tick metric series --
    same sample count, same timestamps, same values -- as the interval
    simulated tick by tick.  This is what makes every downstream per-minute
    window (harness samples, SLO verdicts) immune to how time advanced.
    """

    def test_run_equals_tick_by_tick(self):
        fast_forwarded = build_steady()
        fast_forwarded.run(1800.0)
        assert fast_forwarded.stats.skipped_ticks > 300, "fast-forward never engaged"

        tick_by_tick = build_steady()
        for _ in range(360):
            tick_by_tick.tick()
        assert tick_by_tick.stats.skipped_ticks == 0

        assert_identical_metrics(fast_forwarded, tick_by_tick)
        assert fast_forwarded.clock.now == tick_by_tick.clock.now
        assert fast_forwarded.stats.ticks == tick_by_tick.stats.ticks
        # Cumulative op counters use a fused rate*dt*ticks product; the
        # difference to per-tick accumulation is pure float rounding.
        assert fast_forwarded.total_ops == pytest.approx(
            tick_by_tick.total_ops, rel=1e-9
        )

    @staticmethod
    def _assert_event_kernel_matches_fast_kernel(tick_seconds: float) -> None:
        event = build_steady(tick_seconds=tick_seconds)
        event.run(1800.0)
        assert event.stats.skipped_ticks > 0, "fast-forward never engaged"
        fast = build_steady(NoReuseSolver, tick_seconds=tick_seconds)
        fast.run(1800.0)
        assert event.clock.now == fast.clock.now
        assert_identical_metrics(event, fast)
        assert event.binding_throughput("tenant") == pytest.approx(
            fast.binding_throughput("tenant"), rel=1e-9
        )
        assert event.total_ops == pytest.approx(fast.total_ops, rel=1e-9)

    def test_event_kernel_matches_fast_kernel(self):
        self._assert_event_kernel_matches_fast_kernel(5.0)

    def test_event_kernel_matches_fast_kernel_at_inexact_tick(self):
        """1800 s is no whole number of 0.7 s ticks: both runs must still
        stop on the same instant, after the same trailing partial tick."""
        self._assert_event_kernel_matches_fast_kernel(INEXACT_TICK)

    def test_quiescent_ticks_zero_on_fast_kernel(self):
        """The reuse-disabled twin never fast-forwards, so comparisons
        against it are tick-by-tick."""
        sim = build_steady(NoReuseSolver)
        for _ in range(5):
            sim.tick()
        assert sim.quiescent_ticks(100) == 0

    def test_quiescent_ticks_zero_after_mutation(self):
        sim = build_steady()
        for _ in range(5):
            sim.tick()
        assert sim.quiescent_ticks(100) > 0
        sim.update_workload("tenant", threads=55)
        assert sim.quiescent_ticks(100) == 0

    def test_macro_tick_refuses_an_unvetted_span(self):
        """A span quiescent_ticks did not vet raises instead of silently
        falling back to tick-by-tick stepping."""
        sim = build_steady()
        for _ in range(5):
            sim.tick()
        sim.update_workload("tenant", threads=55)
        with pytest.raises(SimulationError, match="quiescent_ticks"):
            sim.macro_tick(10)
        assert sim.stats.ticks == 5


class _EveryTickController:
    """A controller that asks to be woken every tick: the harness then
    plans no skip, so every tick runs for real."""

    def step(self, now: float) -> None:
        pass

    def next_wakeup(self, now: float) -> float:
        return now


def _build_harness(
    solver=EventSolver,
    every_tick: bool = False,
    daemon_period: float | None = None,
    tick_seconds: float = 5.0,
):
    sim = build_steady(solver, nodes=5, regions=15, tick_seconds=tick_seconds)
    harness = ExperimentHarness(sim, name=solver.__name__, sample_every_seconds=60.0)
    if every_tick:
        harness.add_controller(_EveryTickController())
    if daemon_period is not None:
        harness.add_controller(
            HBaseBalancerDaemon(SimulatorBackend(sim), period_seconds=daemon_period)
        )
    return harness, sim


def _schedule_for(sim: ClusterSimulator) -> EventSchedule:
    """One mid-run workload bump at a time not on the tick grid."""
    return EventSchedule(
        [
            ScheduledAction(
                time_seconds=777.0,
                label="bump",
                apply=lambda: sim.update_workload("tenant", threads=70) or "threads=70",
                annotate=True,
            )
        ]
    )


def _assert_runs_identical(left, right) -> None:
    assert len(left.series) == len(right.series)
    for a, b in zip(left.series, right.series):
        assert a.minute == b.minute
        assert a.nodes == b.nodes
        assert a.throughput == pytest.approx(b.throughput, rel=1e-9, abs=1e-9)
        assert a.cumulative_ops == pytest.approx(b.cumulative_ops, rel=1e-9)
    assert set(left.tenant_series) == set(right.tenant_series)
    for name, points in right.tenant_series.items():
        twins = left.tenant_series[name]
        assert len(twins) == len(points)
        for a, b in zip(twins, points):
            assert a.minute == b.minute
            assert a.throughput == pytest.approx(b.throughput, rel=1e-9, abs=1e-9)
            assert a.latency_ms == pytest.approx(b.latency_ms, rel=1e-9, abs=1e-9)
    assert [(a.minute, a.label) for a in left.annotations] == [
        (b.minute, b.label) for b in right.annotations
    ]
    assert left.machine_minutes == pytest.approx(right.machine_minutes, rel=1e-12)


class TestHarnessFastForward:
    @staticmethod
    def _assert_skipped_run_samples_identically(tick_seconds: float) -> None:
        skipping, skip_sim = _build_harness(tick_seconds=tick_seconds)
        skipped = skipping.run_for(1800.0, schedule=_schedule_for(skip_sim))
        assert skip_sim.stats.skipped_ticks > 200, "fast-forward never engaged"

        ticking, tick_sim = _build_harness(every_tick=True, tick_seconds=tick_seconds)
        ticked = ticking.run_for(1800.0, schedule=_schedule_for(tick_sim))
        assert tick_sim.stats.skipped_ticks == 0, (
            "a controller woken every tick must disable skipping"
        )

        assert skip_sim.clock.now == tick_sim.clock.now
        assert_identical_metrics(skip_sim, tick_sim)
        _assert_runs_identical(skipped, ticked)

    def test_skipped_run_samples_identically(self):
        """Skipping must not drop, duplicate or shift samples."""
        self._assert_skipped_run_samples_identically(5.0)

    def test_skipped_run_samples_identically_at_inexact_tick(self):
        """At a 0.7 s tick the skipping and ticking runs must still sample
        at, and end on, the same instants."""
        self._assert_skipped_run_samples_identically(INEXACT_TICK)

    def test_event_kernel_run_matches_fast_kernel_run(self):
        event_harness, event_sim = _build_harness()
        event_run = event_harness.run_for(1800.0, schedule=_schedule_for(event_sim))
        fast_harness, fast_sim = _build_harness(NoReuseSolver)
        fast_run = fast_harness.run_for(1800.0, schedule=_schedule_for(fast_sim))
        assert event_sim.stats.skipped_ticks > 0
        _assert_runs_identical(event_run, fast_run)

    def test_controller_boundary_misaligned_with_sampling(self):
        """45 s controller wakes vs 60 s samples vs 5 s ticks.

        The wake instants (45, 90, 135, ...) interleave with the sampling
        boundaries (60, 120, ...), coinciding only at multiples of 180 s;
        skip planning must honour both cadences independently.
        """
        event_harness, event_sim = _build_harness(daemon_period=45.0)
        event_run = event_harness.run_for(1800.0)
        fast_harness, fast_sim = _build_harness(NoReuseSolver, daemon_period=45.0)
        fast_run = fast_harness.run_for(1800.0)
        assert event_sim.stats.skipped_ticks > 0, (
            "skipping should engage between controller wakes"
        )
        _assert_runs_identical(event_run, fast_run)
        assert_identical_metrics(event_sim, fast_sim)


class TestControllerContract:
    def test_add_controller_rejects_a_controller_without_next_wakeup(self):
        """Fast-forwarding needs every controller's wake-up bound, so a
        controller that cannot give one is refused at registration."""

        class StepOnly:
            def step(self, now: float) -> None:
                pass

        harness, _ = _build_harness()
        with pytest.raises(TypeError, match="StepOnly has no next_wakeup"):
            harness.add_controller(StepOnly())
