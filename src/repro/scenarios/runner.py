"""Running a scenario spec against the simulator and a controller.

``run_scenario`` builds the cluster, tenants and initial placement, compiles
the spec's events into a schedule, wires up the requested controller (MeT,
tiramola, the planner, or none) and drives the experiment harness to the
end of the scenario; a controller with a start minute joins after the
ramp-up on the initial layout.  This is the one run path: the catalog, the
campaign sweeps and the paper experiments (:mod:`repro.scenarios.paper`)
all run through it.  The returned result carries everything the golden-trace
serialiser needs: the time series, the fired-event annotations, and the
controller's decision log in a controller-agnostic shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.backends import SimulatorBackend
from repro.core.framework import MeT
from repro.core.parameters import MeTParameters
from repro.scenarios.assertions import AssertionResult, evaluate_assertions
from repro.elasticity.daemon import HBaseBalancerDaemon
from repro.elasticity.strategies import PLACEMENTS
from repro.elasticity.tiramola import Tiramola, TiramolaPolicy
from repro.experiments.harness import ExperimentHarness, StrategyRun, apply_placement
from repro.sla.cost import DEFAULT_PRICING, REGIONSERVER_FLAVOR
from repro.sla.slo import SLOReport, evaluate_slos
from repro.scenarios.context import ScenarioContext
from repro.scenarios.schedule import compile_spec
from repro.scenarios.spec import ScenarioSpec
from repro.simulation.cluster import ClusterSimulator
from repro.simulation.hardware import ELASTICITY_VM
from repro.workloads.tenant import materialise_tenants

#: Controllers a scenario can run under.
CONTROLLERS = ("none", "met", "tiramola", "planner")

#: Harness sampling cadence of a scenario run: one series point (and one
#: SLO judgement) per simulated minute.
SAMPLE_EVERY_SECONDS = 60.0


@dataclass
class ScenarioRunResult:
    """Everything observed while running one scenario under one controller."""

    spec: ScenarioSpec
    controller: str
    run: StrategyRun
    decisions: list[dict] = field(default_factory=list)
    #: Verdicts of the spec's declared assertions (those applicable to the
    #: run's controller), in spec order.
    assertions: list[AssertionResult] = field(default_factory=list)
    #: Verdicts of the spec's declared SLOs (see :mod:`repro.sla.slo`),
    #: evaluated under every controller, in spec order.
    slo_reports: list[SLOReport] = field(default_factory=list)
    simulator: ClusterSimulator | None = None
    context: ScenarioContext | None = None

    @property
    def cost(self) -> float:
        """The run's bill (see :mod:`repro.sla.cost`).

        Simulator nodes are the machines a run rents, all RegionServer
        VMs, so the bill is the harness's machine-minutes at that flavor's
        default rate.
        """
        return self.run.machine_minutes * DEFAULT_PRICING.rate_for(
            REGIONSERVER_FLAVOR.name
        )

    @property
    def final_nodes(self) -> int:
        """Online nodes at the end of the run."""
        return self.run.final_nodes

    @property
    def assertions_passed(self) -> bool:
        """Whether every evaluated assertion held (vacuously true if none)."""
        return all(result.passed for result in self.assertions)

    def tenant_units(self) -> dict[str, str]:
        """Native throughput unit of every spec-declared tenant.

        Keyed by binding name (the key of :attr:`StrategyRun.tenant_series`);
        covers the initial tenants plus mid-run arrivals, derived from the
        spec so the mapping exists even when the simulator was discarded.
        """
        tenants = [tenant.workload for tenant in self.spec.tenants]
        tenants += [
            event.workload for event in self.spec.events if hasattr(event, "workload")
        ]
        return {tenant.binding_name: tenant.unit_label for tenant in tenants}


def build_scenario(
    spec: ScenarioSpec,
) -> tuple[ClusterSimulator, ScenarioContext, list[str]]:
    """Materialise the spec's cluster and initial tenants (no controller yet)."""
    simulator = ClusterSimulator(
        hardware=spec.hardware or ELASTICITY_VM,
        tick_seconds=spec.tick_seconds,
        seed=spec.seed,
    )
    nodes = [simulator.add_node() for _ in range(spec.initial_nodes)]
    configured = [tenant.configured_workload() for tenant in spec.tenants]
    expected = materialise_tenants(simulator, configured)
    plan = spec.placement
    if isinstance(plan, str):
        plan = PLACEMENTS[plan](expected, nodes, spec.seed)
    apply_placement(simulator, plan)
    context = ScenarioContext(simulator)
    for tenant in configured:
        context.register_tenant(tenant)
    return simulator, context, nodes


def _make_controller(
    name: str,
    spec: ScenarioSpec,
    backend,
    simulator: ClusterSimulator,
) -> tuple[object | None, list]:
    """Build the controller (and any sidecar daemons) for a run."""
    if name == "none":
        return None, []
    if name == "met":
        parameters = MeTParameters(
            min_nodes=spec.min_nodes,
            max_nodes=spec.max_nodes,
            monitor_period_seconds=spec.monitor_period_seconds,
            decision_samples=spec.decision_samples,
            cooldown_seconds=spec.cooldown_seconds,
        )
        return MeT(backend, parameters), []
    if name == "tiramola":
        policy = TiramolaPolicy(
            min_nodes=spec.min_nodes,
            max_nodes=spec.max_nodes,
            monitor_period_seconds=spec.monitor_period_seconds,
            decision_samples=spec.decision_samples,
            cooldown_seconds=spec.cooldown_seconds,
        )
        # Tiramola leaves placement to HBase's balancer; the daemon shares
        # the run's single RNG so the whole run replays from one seed.
        daemon = HBaseBalancerDaemon(backend, seed=simulator.rng)
        return Tiramola(backend, policy), [daemon]
    if name == "planner":
        # Imported lazily: repro.planner reaches back into the scenario
        # catalog for calibration, so a module-level import would be
        # circular.  The planner sizes capacity but leaves placement to the
        # stock balancer daemon, like Tiramola.
        from repro.planner.controller import PlannerController, planner_policy_for_spec

        controller = PlannerController(backend, policy=planner_policy_for_spec(spec))
        daemon = HBaseBalancerDaemon(backend, seed=simulator.rng)
        return controller, [daemon]
    raise ValueError(f"unknown controller {name!r}; expected one of {CONTROLLERS}")


def _normalise_decisions(controller) -> list[dict]:
    """Controller decision log in a JSON-able shape."""
    if controller is None:
        return []
    return [
        {
            "minute": event.timestamp / 60.0,
            "kind": event.action.value,
            "detail": " ".join(
                part for part in (event.node or "", event.detail) if part
            ),
        }
        for event in controller.log.events
    ]


def run_scenario(
    spec: ScenarioSpec,
    controller: str = "none",
    keep_simulator: bool = True,
) -> ScenarioRunResult:
    """Run ``spec`` under ``controller`` and return the recorded result.

    ``keep_simulator=False`` is the batch-caller mode: the simulator and
    scenario context are not attached to the result *and* their internal
    reference cycles are severed before returning, so a sweep looping over
    thousands of runs holds at most the one simulator it is currently
    running (see :meth:`ClusterSimulator.dispose`).
    """
    simulator, context, _ = build_scenario(spec)
    backend = SimulatorBackend(simulator)
    instance, daemons = _make_controller(controller, spec, backend, simulator)
    harness = ExperimentHarness(
        simulator,
        name=f"{spec.name}:{controller}",
        sample_every_seconds=SAMPLE_EVERY_SECONDS,
    )
    schedule = compile_spec(spec, context)
    start = spec.controller_start_minute * 60.0
    if start > 0:
        harness.run_for(start, schedule=schedule)
    if instance is not None:
        harness.add_controller(instance)
    for daemon in daemons:
        harness.add_controller(daemon)
    run = harness.run_for(spec.duration_seconds - start, schedule=schedule)
    result = ScenarioRunResult(
        spec=spec,
        controller=controller,
        run=run,
        decisions=_normalise_decisions(instance),
        slo_reports=evaluate_slos(
            spec.slos, run, sample_minutes=SAMPLE_EVERY_SECONDS / 60.0
        ),
        simulator=simulator if keep_simulator else None,
        context=context if keep_simulator else None,
    )
    result.assertions = evaluate_assertions(result)
    if not keep_simulator:
        # Eagerly break the simulator's own cycles (regions' _owner, the
        # solver), which would otherwise pin it until a cyclic gc pass.
        simulator.dispose()
    return result
