"""The planner-backed controller: model-predictive, budget-capped scaling.

Where MeT reasons from workload-aware heuristics and Tiramola from system
thresholds, :class:`PlannerController` closes the loop through the fitted
:class:`~repro.planner.calibration.CalibrationModel`: it measures the
cluster's *served* request rate, asks the model for the minimal node count
whose predicted p99 stays under the SLO ceiling, and converges toward it
one node per decision -- scaling up when the model predicts a tail breach,
scaling down when the model says the demand (plus a hysteresis margin)
still fits on fewer nodes, i.e. when headroom is paid-for-but-unused.

An hourly cost budget caps the spend: the controller never provisions more
nodes than the budget buys at the pricing model's per-node rate, so its
objective is explicitly "buy down predicted violation-minutes with at most
this much money" rather than "meet the SLO at any price".

Sampling follows the incumbents' windowing semantics (bounded window,
reset on decision, cooldown between actions) and ``next_wakeup`` bounds
how far the event kernel may fast-forward, so quiescence skipping stays
active under the planner exactly as under MeT and Tiramola.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.core.interfaces import ClusterBackend
from repro.elasticity.autoscaler import Autoscaler, AutoscalerAction
from repro.hbase.config import DEFAULT_HOMOGENEOUS
from repro.planner.calibration import DEFAULT_CALIBRATION, CalibrationModel
from repro.sla.cost import DEFAULT_PRICING, REGIONSERVER_FLAVOR

__all__ = ["PlannerController", "PlannerPolicy", "planner_policy_for_spec"]

#: Extra demand inflation a *smaller* cluster must still absorb before the
#: planner gives a node back -- the hysteresis gap that stops add/remove
#: flapping.
SCALE_DOWN_MARGIN = 0.25


@dataclass(frozen=True)
class PlannerPolicy:
    """Declared objectives and cadence of the planner controller.

    Attributes:
        p99_ceiling_ms: tail-latency SLO the model plans against.
        hourly_budget: max cluster spend per hour (``None`` = uncapped);
            with the pricing rate this fixes the most nodes the planner
            may keep provisioned.
        headroom: demand inflation applied before sizing, so the plan
            absorbs forecast error without breaching.
        monitor_period_seconds: served-rate sampling period.
        decision_samples: samples per decision window.
        cooldown_seconds: minimum time between scaling actions.
        min_nodes / max_nodes: cluster envelope.
        node_hourly_rate: price of one node-hour (defaults to the default
            pricing model's RegionServer rate).
    """

    p99_ceiling_ms: float = 4.0
    hourly_budget: float | None = 0.25
    headroom: float = 0.15
    monitor_period_seconds: float = 30.0
    decision_samples: int = 6
    cooldown_seconds: float = 180.0
    min_nodes: int = 1
    max_nodes: int = 64
    node_hourly_rate: float = DEFAULT_PRICING.rate_for(REGIONSERVER_FLAVOR.name) * 60.0

    def affordable_nodes(self) -> int:
        """Most nodes the hourly budget buys (``max_nodes`` when uncapped)."""
        if self.hourly_budget is None or self.node_hourly_rate <= 0.0:
            return self.max_nodes
        return max(self.min_nodes, int(self.hourly_budget / self.node_hourly_rate))


def planner_policy_for_spec(spec) -> PlannerPolicy:
    """Derive the planner's policy from a scenario spec.

    The tail ceiling comes from the spec's own SLOs -- the tightest
    declared p99 ceiling, falling back to the tightest mean-latency
    ceiling, falling back to the policy default -- so the planner plans
    against exactly the promise the scenario scores it on.  Cadence
    (monitor period, window, cooldown) and the node envelope mirror what
    MeT and Tiramola get from the same spec, keeping the matchup fair.
    """
    defaults = PlannerPolicy()
    p99 = [slo.p99_ceiling_ms for slo in spec.slos if slo.p99_ceiling_ms is not None]
    mean = [
        slo.latency_ceiling_ms for slo in spec.slos if slo.latency_ceiling_ms is not None
    ]
    if p99:
        ceiling = min(p99)
    elif mean:
        ceiling = min(mean)
    else:
        ceiling = defaults.p99_ceiling_ms
    return PlannerPolicy(
        p99_ceiling_ms=ceiling,
        monitor_period_seconds=spec.monitor_period_seconds,
        decision_samples=spec.decision_samples,
        cooldown_seconds=spec.cooldown_seconds,
        min_nodes=spec.min_nodes,
        max_nodes=spec.max_nodes,
    )


class PlannerController(Autoscaler):
    """Model-predictive autoscaler planning against a calibrated model."""

    def __init__(
        self,
        backend: ClusterBackend,
        model: CalibrationModel | None = None,
        policy: PlannerPolicy | None = None,
    ) -> None:
        self.policy = policy or PlannerPolicy()
        super().__init__(
            backend, self.policy.monitor_period_seconds, self.policy.cooldown_seconds
        )
        self.model = model or DEFAULT_CALIBRATION
        self._window: deque[float] = deque(maxlen=self.policy.decision_samples)
        self._last_total: float | None = None
        self._last_total_time: float | None = None
        self._last_budget_block: int | None = None

    # ------------------------------------------------------------------ #
    # controller loop
    # ------------------------------------------------------------------ #
    def step(self, now: float) -> None:
        """Sample the served rate; converge toward the model's node count."""
        if not self._sample_due(now):
            return
        self._sample(now)
        if len(self._window) < self.policy.decision_samples:
            return
        if self._in_cooldown(now):
            return
        demand = max(self._window)
        self._window.clear()
        online = self.backend.online_node_names()
        if not online:
            return
        self._decide(now, demand, online)

    def next_wakeup(self, now: float) -> float:
        """Earliest simulated time at which :meth:`step` may do real work."""
        return self._next_sample(now)

    # ------------------------------------------------------------------ #
    # decision
    # ------------------------------------------------------------------ #
    def _decide(self, now: float, demand: float, online: list[str]) -> None:
        policy = self.policy
        inflated = demand * (1.0 + policy.headroom)
        wanted = self.model.nodes_for(
            inflated,
            p99_ceiling_ms=policy.p99_ceiling_ms,
            flavor=self.model.base_flavor,
            max_nodes=policy.max_nodes,
        )
        if wanted is None:
            # Demand exceeds what max_nodes can serve under the ceiling:
            # provision everything the envelope (and budget) allows.
            wanted = policy.max_nodes
        affordable = policy.affordable_nodes()
        target = max(policy.min_nodes, min(wanted, affordable, policy.max_nodes))
        count = len(online)
        if target > count:
            predicted = self.model.predict_p99(inflated, count, self.model.base_flavor)
            name = self.backend.add_node(DEFAULT_HOMOGENEOUS, "default")
            self._last_action_time = now
            self._last_budget_block = None
            self.log.record(
                now,
                AutoscalerAction.ADD_NODE,
                node=name,
                detail=(
                    f"predicted p99 {self._fmt_ms(predicted)} at {count} nodes "
                    f"(ceiling {policy.p99_ceiling_ms:g}ms); target {target}"
                ),
            )
        elif wanted > affordable and wanted > count:
            # The model wants more than the budget buys; record the refusal
            # once per distinct ask so the trade-off is visible in traces
            # without flooding them every decision period.
            if self._last_budget_block != wanted:
                self._last_budget_block = wanted
                self.log.record(
                    now,
                    AutoscalerAction.NONE,
                    detail=(
                        f"budget {policy.hourly_budget:g}/h caps cluster at "
                        f"{affordable} nodes; model wants {wanted}"
                    ),
                )
        elif target < count and count > policy.min_nodes:
            # Only shrink when a smaller cluster still absorbs the demand
            # plus the hysteresis margin -- paid-for-but-unused headroom.
            guarded = demand * (1.0 + policy.headroom + SCALE_DOWN_MARGIN)
            predicted = self.model.predict_p99(
                guarded, count - 1, self.model.base_flavor
            )
            if predicted <= policy.p99_ceiling_ms:
                victim = self._least_loaded_node(online)
                if victim is not None:
                    self.backend.remove_node(victim)
                    self._last_action_time = now
                    self._last_budget_block = None
                    self.log.record(
                        now,
                        AutoscalerAction.REMOVE_NODE,
                        node=victim,
                        detail=(
                            f"predicted p99 {self._fmt_ms(predicted)} at "
                            f"{count - 1} nodes; unused headroom"
                        ),
                    )

    # ------------------------------------------------------------------ #
    # sampling
    # ------------------------------------------------------------------ #
    def _sample(self, now: float) -> None:
        """Record one served-rate observation from the partition counters.

        The backend's partition stats are cumulative reads/writes/scans per
        region; successive totals divide by wall-clock into the cluster's
        *served* ops/s.  Under saturation this under-reports offered demand,
        but the calibrated curve maps served per-node rate to tail latency,
        so saturation still surfaces as a predicted breach.
        """
        self._last_sample_time = now
        total = 0.0
        for stats in self.backend.partition_stats().values():
            total += stats.total_requests
        if self._last_total is not None and now > self._last_total_time:
            elapsed = now - self._last_total_time
            rate = max(0.0, total - self._last_total) / elapsed
            self._window.append(rate)
        self._last_total = total
        self._last_total_time = now

    def _least_loaded_node(self, online: list[str]) -> str | None:
        loads = {}
        for name in online:
            metrics = self.backend.node_system_metrics(name)
            loads[name] = max(metrics.get("cpu", 0.0), metrics.get("io_wait", 0.0))
        if not loads:
            return None
        return min(sorted(loads), key=loads.get)

    @staticmethod
    def _fmt_ms(value: float) -> str:
        return "inf" if value == float("inf") else f"{value:.2f}ms"
