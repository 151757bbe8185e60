"""The paper's evaluation runs, declared as scenario specs.

Every experiment of the evaluation is one or more :class:`ScenarioSpec`s
run by :func:`~repro.scenarios.runner.run_scenario`; the modules under
:mod:`repro.experiments` run these specs and fold the results into the
paper's tables and figures.  Each spec below is goldened under the
controller it runs with (``tests/golden/paper/``, see
:func:`repro.scenarios.trace.paper_traces`).

* :data:`FIGURE1` -- Section 3.4: the six YCSB tenants on five nodes, one
  spec per placement strategy of Section 3.3, no controller.  The figure's
  five runs are seeds 0-4 of each spec.
* :data:`FIGURE4` -- Section 6.2: MeT joins a Random-Homogeneous cluster of
  fixed size at minute 2, next to the two manual baselines.
* :data:`FIGURE6` -- Section 6.4: an overloaded 6-VM cluster that may grow
  to 11, MeT vs tiramola; tenants leave on :data:`SHUTDOWN_SCHEDULE`.
  Figure 5 reports the same runs' first phase, up to the first departure.
* :data:`TABLE2` -- Section 6.3: one TPC-C tenant, one warehouse-aligned
  partition per node; run under no controller it is setting (i), under MeT
  (which joins at minute 4) setting (ii).  :func:`converged` derives
  setting (iii) from the setting-(ii) run.

The controllers sample every 30 s and decide every 6 samples, as in the
paper.  These specs are not in the scenario catalog: the catalog is the
reduced-scale generalisation surface, these are the published runs.
"""

from __future__ import annotations

from dataclasses import replace

from repro.elasticity.strategies import PlacementPlan
from repro.scenarios.events import TenantDeparture
from repro.scenarios.runner import ScenarioRunResult
from repro.scenarios.spec import ScenarioSpec, TenantSpec
from repro.simulation.hardware import ELASTICITY_VM, HardwareSpec
from repro.workloads.tpcc.schema import TPCCConfig
from repro.workloads.tpcc.tenant import TPCCTenant
from repro.workloads.ycsb.workloads import CORE_WORKLOADS

#: Per-workload throughput caps of the elasticity experiment: together they
#: overload the initial 6-node cluster and define the maximum achievable
#: throughput once every client is saturated (the paper's ~22 kops/s
#: plateau).
SCENARIO_TARGETS: dict[str, float] = {
    "A": 5000.0,
    "B": 4500.0,
    "C": 4500.0,
    "D": 1500.0,
    "E": 600.0,
    "F": 4500.0,
}

#: Phase-2 shutdown schedule of the elasticity experiment: minute ->
#: workloads switched off.
SHUTDOWN_SCHEDULE: dict[float, tuple[str, ...]] = {
    33.0: ("E", "F"),
    43.0: ("B", "D"),
    53.0: ("A",),
}


def _ycsb_tenants(targets: dict[str, float]) -> tuple[TenantSpec, ...]:
    """The six paper tenants, each capped at ``targets`` or its own target."""
    return tuple(
        TenantSpec(workload, target_ops=targets.get(name, workload.target_ops_per_second))
        for name, workload in CORE_WORKLOADS.items()
    )


#: The paper's controller cadence: 30 s samples, a decision every 3 minutes,
#: MeT's 60 s cooldown.
_PAPER = ScenarioSpec(
    name="paper",
    tenants=_ycsb_tenants({}),
    hardware=HardwareSpec(),
    initial_nodes=5,
    min_nodes=5,
    max_nodes=5,
    monitor_period_seconds=30.0,
    decision_samples=6,
    cooldown_seconds=60.0,
)

#: Figure 1, keyed by strategy (in presentation order).
FIGURE1: dict[str, ScenarioSpec] = {
    strategy: replace(
        _PAPER,
        name=f"figure1_{strategy.replace('-', '_')}",
        placement=strategy,
        duration_minutes=10.0,
    )
    for strategy in ("random-homogeneous", "manual-homogeneous", "manual-heterogeneous")
}

_FIGURE4 = replace(_PAPER, name="figure4", duration_minutes=30.0, seed=1)

#: Figure 4: the MeT run (under ``met``) and the two manual baselines
#: (under no controller).
FIGURE4: dict[str, ScenarioSpec] = {
    "met": replace(_FIGURE4, placement="random-homogeneous", controller_start_minute=2.0),
    "manual-homogeneous": replace(
        _FIGURE4, name="figure4_manual_homogeneous", placement="manual-homogeneous"
    ),
    "manual-heterogeneous": replace(
        _FIGURE4, name="figure4_manual_heterogeneous", placement="manual-heterogeneous"
    ),
}

_FIGURE6 = replace(
    _PAPER,
    name="figure6",
    tenants=_ycsb_tenants(SCENARIO_TARGETS),
    events=tuple(
        TenantDeparture(minute=minute, tenant=tenant)
        for minute, tenants in SHUTDOWN_SCHEDULE.items()
        for tenant in tenants
    ),
    duration_minutes=60.0,
    hardware=ELASTICITY_VM,
    initial_nodes=6,
    min_nodes=6,
    max_nodes=11,
)

#: Figure 6, keyed by the controller each spec runs under; tiramola keeps
#: its own 180 s cooldown.
FIGURE6: dict[str, ScenarioSpec] = {
    "met": replace(_FIGURE6, name="figure6_met"),
    "tiramola": replace(_FIGURE6, name="figure6_tiramola", cooldown_seconds=180.0),
}

#: Table 2, settings (i) and (ii): 300 TPC-C clients on 30 warehouses, MeT
#: (when run under it) joining at minute 4.
TABLE2 = replace(
    _PAPER,
    name="table2",
    tenants=(TenantSpec(TPCCTenant(config=TPCCConfig(warehouses=30, warehouses_per_node=5))),),
    duration_minutes=45.0,
    initial_nodes=6,
    min_nodes=6,
    max_nodes=6,
    placement="partition-per-node",
    controller_start_minute=4.0,
)


def converged(spec: ScenarioSpec, result: ScenarioRunResult) -> ScenarioSpec:
    """``spec`` started from the layout a controller left ``result`` in.

    Table 2's setting (iii): every node carries its final configuration and
    profile, and every partition its final node, from t=0 -- the upper
    bound without reconfiguration overhead (no restart, data local).
    ``result`` must keep its simulator.
    """
    nodes = result.simulator.nodes
    plan = PlacementPlan(
        name="converged",
        node_configs={name: node.config for name, node in nodes.items()},
        node_profiles={name: node.profile_name for name, node in nodes.items()},
        assignment={
            partition: node
            for partition, node in result.simulator.assignment().items()
            if node is not None
        },
    )
    return replace(spec, name=f"{spec.name}_converged", placement=plan)


#: Every declared paper spec with the controller it runs under.
PAPER_RUNS: tuple[tuple[ScenarioSpec, str], ...] = (
    *((spec, "none") for spec in FIGURE1.values()),
    *((spec, "met" if key == "met" else "none") for key, spec in FIGURE4.items()),
    *((spec, controller) for controller, spec in FIGURE6.items()),
    (TABLE2, "none"),
    (TABLE2, "met"),
)
