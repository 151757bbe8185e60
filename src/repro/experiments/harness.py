"""Shared experiment machinery.

The harness glues together a :class:`ClusterSimulator`, the multi-tenant
YCSB (or TPC-C) scenario, an optional placement plan and an optional
controller (MeT or tiramola), and runs the simulation while recording the
series the figures need: per-minute throughput, cumulative operations and
cluster size.

:meth:`ExperimentHarness.run_for` optionally consumes an *event schedule*
(see :mod:`repro.scenarios.schedule`): timed actions -- load-curve steps,
tenant churn, fault injection -- fired against the simulator between ticks.
Fired events that carry an annotation are recorded in the run, so a trace
shows *why* the series changed shape at a given minute.

Every controller declares when it next acts: ``step(now)`` advances it and
``next_wakeup(now)`` bounds the ticks it may sleep through (see
:class:`~repro.elasticity.autoscaler.Autoscaler`).  The harness relies on
that bound to fast-forward quiescent stretches, so
:meth:`ExperimentHarness.add_controller` refuses an object without it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.elasticity.strategies import PlacementPlan
from repro.simulation.cluster import ClusterSimulator


@dataclass
class TimeSeriesPoint:
    """One sample of the run's observable state."""

    minute: float
    throughput: float
    cumulative_ops: float
    nodes: int


@dataclass
class TenantSeriesPoint:
    """One per-tenant quality sample: what *this* tenant experienced.

    ``throughput`` and ``latency_ms`` are the tenant's tick-level series
    (recorded every tick into the simulator's
    :class:`~repro.simulation.metrics.MetricsRegistry`) averaged over the
    sampling window ending at ``minute``, so a sample reflects the whole
    window rather than the instant the sampler happened to fire.  The SLA
    layer (:mod:`repro.sla`) judges SLO compliance against these points.

    ``p95_ms``/``p99_ms`` are tail quantiles of the *exact merge* of the
    window's per-tick latency distribution summaries -- not means of
    per-tick percentiles -- so a one-tick latency spike inside the window
    surfaces at the tail even when the window mean hides it.  ``None`` when
    the window holds no recorded distribution.
    """

    minute: float
    throughput: float
    latency_ms: float
    p95_ms: float | None = None
    p99_ms: float | None = None


@dataclass
class RunAnnotation:
    """A scenario event that fired during the run, for traces and plots."""

    minute: float
    label: str
    detail: str = ""


@dataclass
class StrategyRun:
    """Recorded outcome of one experiment run."""

    name: str
    series: list[TimeSeriesPoint] = field(default_factory=list)
    #: Per-tenant quality series keyed by binding name (e.g. ``workload-A``);
    #: tenants arriving mid-run start their series at their first sample.
    tenant_series: dict[str, list[TenantSeriesPoint]] = field(default_factory=dict)
    per_workload_throughput: dict[str, float] = field(default_factory=dict)
    annotations: list[RunAnnotation] = field(default_factory=list)
    total_operations: float = 0.0
    final_nodes: int = 0
    machine_minutes: float = 0.0
    #: Whole-run latency distribution per tenant (exact merge of every tick's
    #: summary), keyed like :attr:`tenant_series`.  Captured at finalise so
    #: traces can serialise distributions after the simulator is disposed.
    tenant_distributions: dict[str, object] = field(default_factory=dict)

    @property
    def mean_throughput(self) -> float:
        """Mean of the recorded per-minute throughput samples."""
        if not self.series:
            return 0.0
        return sum(point.throughput for point in self.series) / len(self.series)

    def throughput_between(self, start_minute: float, end_minute: float) -> float:
        """Mean throughput between two minutes of the run."""
        window = [
            point.throughput
            for point in self.series
            if start_minute <= point.minute <= end_minute
        ]
        if not window:
            return 0.0
        return sum(window) / len(window)

    def operations_until(self, minute: float) -> float:
        """Cumulative operations completed by ``minute``."""
        eligible = [p.cumulative_ops for p in self.series if p.minute <= minute]
        return eligible[-1] if eligible else 0.0

    def node_bounds(self) -> tuple[int, int]:
        """Smallest and largest observed cluster size (scenario assertions
        check it against a declared envelope)."""
        if not self.series:
            return self.final_nodes, self.final_nodes
        counts = [point.nodes for point in self.series]
        return min(counts), max(counts)

    def peak_percentile(self, percentile: int) -> float:
        """Worst recorded p95/p99 sample across every tenant (0.0 when absent)."""
        attr = _percentile_attr(percentile)
        return max(
            (
                getattr(point, attr)
                for points in self.tenant_series.values()
                for point in points
                if getattr(point, attr) is not None
            ),
            default=0.0,
        )


def _percentile_attr(percentile: int) -> str:
    """The TenantSeriesPoint field carrying a recorded percentile."""
    if percentile == 95:
        return "p95_ms"
    if percentile == 99:
        return "p99_ms"
    raise ValueError(f"only p95/p99 are recorded per sample, got p{percentile}")


def apply_placement(simulator: ClusterSimulator, plan: PlacementPlan) -> None:
    """Apply a placement plan: node configurations and region assignment.

    Regions start fully local to the node they are placed on (the paper's
    elasticity experiments start from 100% data locality).
    """
    for node_name, config in plan.node_configs.items():
        node = simulator.nodes[node_name]
        node.config = config.validate()
        node.profile_name = plan.node_profiles.get(node_name, "default")
    for partition_id, node_name in plan.assignment.items():
        region = simulator.regions[partition_id]
        region.node = node_name
        region.block_homes = {node_name}
    # Direct node.config writes above bypass the simulator's mutator hooks;
    # tell the solver its cached fixed point is stale.
    simulator.invalidate_solution()


class ExperimentHarness:
    """Runs a simulator with optional controllers, recording time series."""

    def __init__(
        self,
        simulator: ClusterSimulator,
        name: str = "run",
        sample_every_seconds: float = 60.0,
    ) -> None:
        self.simulator = simulator
        self.run = StrategyRun(name=name)
        self.sample_every_seconds = sample_every_seconds
        self._controllers: list = []
        self._machine_seconds = 0.0
        self._next_sample = 0.0
        self._last_sample_time = 0.0

    def add_controller(self, controller) -> None:
        """Register a controller: ``step(now)`` runs after every real tick,
        and ``next_wakeup(now)`` bounds the ticks a macro-tick may cover."""
        if not callable(getattr(controller, "next_wakeup", None)):
            raise TypeError(
                f"{type(controller).__name__} has no next_wakeup(now); "
                "every controller must declare when it next acts"
            )
        self._controllers.append(controller)

    def run_for(self, seconds: float, schedule=None) -> StrategyRun:
        """Advance the simulation by ``seconds``, sampling along the way.

        When ``schedule`` (an :class:`~repro.scenarios.schedule.EventSchedule`)
        is given, actions due at or before the current simulated time fire
        *before* each tick, and annotated actions are recorded in
        :attr:`StrategyRun.annotations`.

        Quiescent stretches are *fast-forwarded*: ticks that would fire no
        scheduled action, wake no controller and cross no sampling boundary
        are covered by one macro-tick instead of being simulated one by one
        (each loop iteration is one :meth:`ClusterSimulator.advance` step).
        The recorded series, samples, annotations and machine-minutes are
        identical either way -- skipping is bounded so that every tick with
        observable side effects runs for real.
        """
        simulator = self.simulator
        clock = simulator.clock
        controllers = self._controllers
        tick_seconds = clock.tick_seconds
        # Read the remaining time off the clock: ``end`` is fixed once, so a
        # fast-forwarded run stops on the same instant as a tick-by-tick one.
        end = clock.now + seconds
        while True:
            remaining = end - clock.now
            if remaining <= 1e-9:
                break
            if schedule is not None:
                self._fire_due(schedule)
            # The harness's own tick limit; 0 forces one real tick.  Plan
            # only when a macro-tick could fit, so controllers are asked for
            # their wake-ups no more often than a skip is possible.
            limit = 0
            if remaining >= 2.0 * tick_seconds - 1e-9:
                limit = self._plan_skip(schedule, tick_seconds)
            span = simulator.advance(remaining, limit)
            now = clock.now
            if span <= tick_seconds:
                # A single real tick: controllers step.  A macro-tick's span
                # ends before every controller's next wake-up.
                for controller in controllers:
                    controller.step(now)
            # Counting online nodes avoids allocating a node list every tick;
            # a macro-tick crosses no node state transition, so the count is
            # constant across its span.
            self._machine_seconds += simulator.online_node_count() * span
            if now + 1e-9 >= self._next_sample:
                self._sample(now)
                self._next_sample = now + self.sample_every_seconds
        if schedule is not None:
            # Events scheduled exactly at the end of the window still fire,
            # so chained run_for calls see each event exactly once.
            self._fire_due(schedule)
        self._finalise()
        return self.run

    def _plan_skip(self, schedule, tick_seconds: float) -> int:
        """How many upcoming whole ticks the harness lets one batch cover.

        A batch of ``k`` ticks starting at ``clock.now`` is equivalent to
        ``k`` loop iterations iff every skipped iteration is observably
        inert.  :meth:`ClusterSimulator.advance` applies the remaining-time
        budget and the simulator's own quiescence check; three external
        bounds apply on top:

        * *schedule*: the batch may end exactly at the next action's time
          (the action then fires on the following iteration, as it would
          tick-by-tick), but no skipped pre-tick fire check may be due;
        * *controllers*: every skipped ``step(t)`` call must satisfy
          ``t < next_wakeup`` -- i.e. be a guaranteed no-op;
        * *sampling*: the batch may end exactly on the sampling boundary
          (the caller runs the sample check after the batch) but must not
          cross it, so window means see the same series either way.
        """
        now = self.simulator.clock.now
        dt = tick_seconds
        # Inclusive bound: the batch may end AT this time but not beyond.
        end_bound = self._next_sample
        if schedule is not None:
            next_action = schedule.next_time()
            if next_action is not None and next_action < end_bound:
                end_bound = next_action
        budget = int((end_bound - now + 1e-9) // dt)
        for controller in self._controllers:
            wake = controller.next_wakeup(now)
            if wake == float("inf"):
                continue
            # Exclusive bound: the batch must end strictly before the wake.
            k = int((wake - now - 1e-9) // dt)
            if k < budget:
                budget = k
        return budget

    def _fire_due(self, schedule) -> None:
        now = self.simulator.clock.now
        for fired in schedule.fire_due(now):
            if fired.annotate:
                # Record the *scheduled* time: when ticks do not divide event
                # times, the firing tick lags the event by up to one tick.
                self.run.annotations.append(
                    RunAnnotation(
                        minute=fired.time_seconds / 60.0,
                        label=fired.label,
                        detail=fired.detail,
                    )
                )

    def _sample(self, now: float) -> None:
        self.run.series.append(
            TimeSeriesPoint(
                minute=now / 60.0,
                throughput=self.simulator.cluster_throughput(),
                cumulative_ops=self.simulator.total_ops,
                nodes=self.simulator.online_node_count(),
            )
        )
        self._sample_tenants(now)
        self._last_sample_time = now

    def _sample_tenants(self, now: float) -> None:
        """One TenantSeriesPoint per live tenant: window means of the
        tick-level latency/throughput series the simulator records."""
        metrics = self.simulator.metrics
        minute = now / 60.0
        start = self._last_sample_time
        tenant_series = self.run.tenant_series
        for name in self.simulator.bindings:
            entity = f"workload:{name}"
            throughput = metrics.series(entity, "throughput").mean_between(start, now)
            latency = metrics.series(entity, "latency_ms").mean_between(start, now)
            p95 = p99 = None
            distribution = metrics.distribution(entity, "latency_ms")
            if distribution is not None:
                merged = distribution.merged_between(start, now)
                if merged is not None:
                    p95 = merged.quantile(0.95)
                    p99 = merged.quantile(0.99)
            tenant_series.setdefault(name, []).append(
                TenantSeriesPoint(
                    minute=minute,
                    throughput=throughput,
                    latency_ms=latency,
                    p95_ms=p95,
                    p99_ms=p99,
                )
            )

    def _finalise(self) -> None:
        self.run.total_operations = self.simulator.total_ops
        self.run.final_nodes = len(self.simulator.online_nodes())
        self.run.machine_minutes = self._machine_seconds / 60.0
        self.run.per_workload_throughput = {
            name: self.simulator.binding_throughput(name)
            for name in self.simulator.bindings
        }
        # Whole-run distributions survive simulator disposal on the run
        # itself; merging is exact, so chained run_for calls can recompute
        # from scratch without drift.  Departed tenants keep the entries
        # recorded while they ran (the registry series outlives the binding).
        metrics = self.simulator.metrics
        distributions = {}
        for name in self.run.tenant_series:
            series = metrics.distribution(f"workload:{name}", "latency_ms")
            if series is not None and len(series):
                distributions[name] = series.merged()
        self.run.tenant_distributions = distributions
