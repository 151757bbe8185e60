"""Replaying a solution's apply plan must match solving every tick.

``ClusterSimulator`` derives an apply plan the first time it applies a
solution and replays it for every later tick or macro-tick that reuses the
same solution at the same tick length.  These tests run one simulator on
the production solver and a twin on ``NoReuseSolver`` (every tick a real
solve, nothing fast-forwarded) and require every metric series, latency
distribution, rate and node observable to agree byte for byte.  Cumulative
counters are the one documented exception: a macro-tick advances them by
``rate * dt * ticks`` instead of ``ticks`` additions, so they agree to
float rounding only.  Two cases:

* a trailing partial tick reuses the solution at another ``dt``, which is
  part of the plan's key (``cluster.operations`` is ``total * dt``);
* a hypothesis fuzz interleaves the declared mutators and
  ``ScenarioContext.grow_tenant_data`` with random run lengths -- the
  dynamic twin of lint rule D4: a mutation that leaves a stale solution
  (or a stale plan) in place diverges from the twin.  It runs at two
  cluster sizes, one per solver loop, and after every step also checks
  the solver's cached solve context against a fresh build, which the
  twins cannot see because they share that cache.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.profiles import NODE_PROFILES
from repro.scenarios.context import ScenarioContext
from repro.scenarios.spec import binding_name
from repro.simulation.cluster import ClusterSimulator
from repro.simulation import solvers
from repro.simulation.solvers import EventSolver
from repro.simulation.workload import WorkloadBinding
from solver_oracles import NoReuseSolver, assert_context_fresh, installed

#: Insert-free mixes, as in the benchmark's steady cluster.
MIXES = (
    {"read": 0.95, "update": 0.05},
    {"read": 0.5, "update": 0.5},
    {"read": 0.95, "scan": 0.05},
    {"read": 0.5, "read_modify_write": 0.5},
)


def build_cluster(
    solver, nodes: int, regions: int, tenants: int, tick_seconds: float = 5.0
) -> ClusterSimulator:
    """A quiescent multi-tenant cluster: regions round-robin over nodes."""
    with installed(solver):
        sim = ClusterSimulator(tick_seconds=tick_seconds)
    names = [sim.add_node() for _ in range(nodes)]
    per_tenant = regions // tenants
    for tenant in range(tenants):
        name = binding_name(chr(ord("A") + tenant))
        ids = []
        for index in range(per_tenant):
            region_id = f"{name}:r{index}"
            position = tenant * per_tenant + index
            sim.add_region(
                region_id, name, 2e8 + 1e7 * (position % 23), node=names[position % nodes]
            )
            ids.append(region_id)
        weights = {region_id: 1.0 / per_tenant for region_id in ids}
        weights[ids[-1]] = 1.0 - (per_tenant - 1) / per_tenant
        sim.attach_workload(
            WorkloadBinding(
                name=name,
                threads=40 + 5 * tenant,
                op_mix=dict(MIXES[tenant % len(MIXES)]),
                region_weights=weights,
            )
        )
    return sim


def snapshot(sim: ClusterSimulator) -> str:
    """Every exact observable the apply path writes, as a repr string."""
    series = {key: (s.timestamps, s.values) for key, s in sim.metrics.items()}
    distributions = {
        key: (d.timestamps, [summary.to_pairs() for summary in d.values])
        for key, d in sorted(sim.metrics._distributions.items())
    }
    regions = {
        rid: (r.node, r.size_bytes, r.read_rate, r.write_rate, r.scan_rate)
        for rid, r in sim.regions.items()
    }
    nodes = {
        name: (n.state, n.cpu_utilization, n.io_wait, n.memory_utilization, n.served_ops)
        for name, n in sim.nodes.items()
    }
    bindings = {
        name: (sim.binding_throughput(name), sim.binding_latency_ms(name))
        for name in sim.bindings
    }
    return repr((sim.clock.now, series, distributions, regions, nodes, bindings))


def counters(sim: ClusterSimulator) -> list[float]:
    """The cumulative counters, which macro-ticks advance by one multiply."""
    values = [sim.total_ops]
    for region in sim.regions.values():
        values.extend((region.reads, region.writes, region.scans))
    return values


def assert_twins_agree(production: ClusterSimulator, oracle: ClusterSimulator) -> None:
    assert snapshot(production) == snapshot(oracle)
    assert counters(production) == pytest.approx(counters(oracle), rel=1e-12, abs=1e-9)


def _assert_partial_tick_replays_the_plan(tick_seconds: float) -> None:
    twins = []
    for solver in (EventSolver, NoReuseSolver):
        sim = build_cluster(solver, nodes=8, regions=80, tenants=4, tick_seconds=tick_seconds)
        sim.run(60.0)
        sim.run(2.5)
        sim.run(60.0)
        twins.append(sim)
    production, oracle = twins
    # The production run must actually have reused across the partial tick.
    assert production.stats.skipped_ticks > 0
    assert production.stats.solves < oracle.stats.solves
    assert_twins_agree(production, oracle)


def test_partial_tick_replays_the_plan_at_its_own_dt():
    _assert_partial_tick_replays_the_plan(5.0)


def test_partial_tick_replays_the_plan_at_an_inexact_dt():
    """At a 0.7 s tick every run ends in a partial tick, and a
    fast-forwarded run must end it on the same instant as the twin."""
    _assert_partial_tick_replays_the_plan(0.7)


#: One fuzz step: ("run", seconds) or a mutator with index arguments that
#: are resolved against the (identical) live state of both twins.
STEPS = st.one_of(
    st.tuples(st.just("run"), st.sampled_from([2.5, 5.0, 7.5, 12.0, 30.0, 60.0])),
    st.tuples(st.just("move"), st.integers(0, 99), st.integers(0, 9)),
    st.tuples(
        st.just("mix"),
        st.integers(0, 9),
        st.sampled_from(MIXES),
        st.sampled_from([None, 800.0, 2500.0]),
    ),
    st.tuples(st.just("threads"), st.integers(0, 9), st.integers(5, 80)),
    st.tuples(st.just("active"), st.integers(0, 9), st.booleans()),
    st.tuples(st.just("degrade"), st.integers(0, 9), st.sampled_from([0.3, 0.6, 1.0])),
    st.tuples(st.just("restore"), st.integers(0, 9)),
    st.tuples(st.just("fail"), st.integers(0, 9)),
    st.tuples(st.just("grow"), st.integers(0, 9), st.sampled_from([1.5, 4.0, 0.5])),
    st.tuples(st.just("reconfigure"), st.integers(0, 9), st.sampled_from(sorted(NODE_PROFILES))),
    st.tuples(st.just("boot")),
    st.tuples(st.just("compact"), st.integers(0, 9)),
)


def apply_step(sim: ClusterSimulator, context: ScenarioContext, step: tuple) -> None:
    kind = step[0]
    if kind == "run":
        sim.run(step[1])
        return
    nodes = list(sim.nodes)
    bindings = list(sim.bindings)
    if kind == "move":
        regions = list(sim.regions)
        sim.move_region(regions[step[1] % len(regions)], nodes[step[2] % len(nodes)])
    elif kind == "mix":
        sim.update_workload(
            bindings[step[1] % len(bindings)],
            op_mix=step[2],
            target_ops_per_second=step[3],
        )
    elif kind == "threads":
        sim.update_workload(bindings[step[1] % len(bindings)], threads=step[2])
    elif kind == "active":
        sim.set_workload_active(bindings[step[1] % len(bindings)], step[2])
    elif kind == "degrade":
        sim.degrade_node(nodes[step[1] % len(nodes)], step[2])
    elif kind == "restore":
        sim.restore_node(nodes[step[1] % len(nodes)])
    elif kind == "fail":
        if len(nodes) > 1:
            sim.fail_node(nodes[step[1] % len(nodes)])
    elif kind == "grow":
        tenant = chr(ord("A") + step[1] % len(bindings))
        context.grow_tenant_data(tenant, step[2])
    elif kind == "reconfigure":
        profile = step[2]
        sim.reconfigure_node(
            nodes[step[1] % len(nodes)], NODE_PROFILES[profile].config, profile_name=profile
        )
    elif kind == "boot":
        sim.add_node(online=False)
    elif kind == "compact":
        sim.major_compact(nodes[step[1] % len(nodes)])


def run_twins(steps, nodes: int, regions: int, tenants: int) -> None:
    twins = []
    for solver in (EventSolver, NoReuseSolver):
        sim = build_cluster(solver, nodes=nodes, regions=regions, tenants=tenants)
        context = ScenarioContext(sim)
        sim.run(30.0)  # settle, so the production twin starts reusing
        for step in steps:
            apply_step(sim, context, step)
            assert_context_fresh(sim)
        sim.run(30.0)
        twins.append(sim)
    production, oracle = twins
    assert_twins_agree(production, oracle)


@settings(max_examples=25, deadline=None)
@given(steps=st.lists(STEPS, min_size=1, max_size=12))
def test_mutator_interleavings_never_replay_a_stale_solution(steps):
    run_twins(steps, nodes=4, regions=12, tenants=2)


@settings(max_examples=10, deadline=None)
@given(steps=st.lists(STEPS, min_size=1, max_size=12))
def test_mutator_interleavings_at_vector_size(steps):
    """The same fuzz on a cluster the vector loop solves."""
    regions = 80
    assert regions >= solvers.VECTOR_MIN_REGIONS
    run_twins(steps, nodes=8, regions=regions, tenants=4)
