"""The MeT framework: wiring Monitor, Decision Maker and Actuator together.

Figure 2 of the paper: the Monitor and Actuator interface with the NoSQL
database and the IaaS; the Decision Maker sits between them.  The
:class:`MeT` class is driven by calling :meth:`MeT.step` as (simulated) time
advances: it samples the monitor, runs a decision round when enough samples
accumulated and no action is in flight, and advances the actuator's plan;
:meth:`MeT.next_wakeup` tells the harness how long it may sleep.  Its
cadence, cooldown and decision log are the shared
:class:`~repro.elasticity.autoscaler.Autoscaler` skeleton.  MeT acts from
the moment it is registered with a harness: an experiment that starts it
mid-run registers it then.
"""

from __future__ import annotations

from repro.core.actuator import Actuator
from repro.core.decision import DecisionMaker, ReconfigurationPlan
from repro.core.interfaces import ClusterBackend
from repro.core.parameters import MeTParameters
from repro.elasticity.autoscaler import Autoscaler, AutoscalerAction
from repro.monitoring.collector import MetricsCollector


class MeT(Autoscaler):
    """The workload-aware elasticity controller."""

    def __init__(
        self,
        backend: ClusterBackend,
        parameters: MeTParameters | None = None,
    ) -> None:
        self.parameters = (parameters or MeTParameters()).validate()
        super().__init__(
            backend,
            self.parameters.monitor_period_seconds,
            self.parameters.cooldown_seconds,
        )
        self.monitor = MetricsCollector(
            backend,
            decision_samples=self.parameters.decision_samples,
            smoothing_alpha=self.parameters.smoothing_alpha,
        )
        self.decision_maker = DecisionMaker(self.parameters)
        self.actuator = Actuator(backend, self.parameters)

    def step(self, now: float) -> ReconfigurationPlan | None:
        """Advance the controller at simulated time ``now``.

        Returns the plan submitted this step, if any.  A plan that finishes
        during this step is logged, starts the cooldown and discards the
        pre-action observations before any decision is considered.
        """
        if self._sample_due(now):
            self._last_sample_time = now
            self.monitor.sample()
        if self.actuator.busy:
            self.actuator.step()
            if not self.actuator.busy:
                self.log.record(now, AutoscalerAction.PLAN_COMPLETE)
                self._last_action_time = now
                self.monitor.reset_after_action()
        if self.actuator.busy:
            return None
        if not self.monitor.decision_due():
            return None
        if self._in_cooldown(now):
            return None
        snapshot = self.monitor.snapshot(now)
        plan = self.decision_maker.decide(snapshot)
        if plan is None or plan.is_noop():
            self.log.record(
                now, AutoscalerAction.HEALTHY, detail="cluster load acceptable"
            )
            return None
        self.actuator.submit(plan)
        self.log.record(
            now,
            AutoscalerAction.PLAN,
            detail=(
                f"initial={plan.initial} restarts={plan.restarts} "
                f"adds={len(plan.new_nodes)} removes={len(plan.nodes_to_remove)} "
                f"moves={len(plan.moves)}"
            ),
        )
        return plan

    def next_wakeup(self, now: float) -> float:
        """Earliest simulated time at which :meth:`step` may do real work.

        ``step(t)`` is a no-op for every ``t`` strictly below the returned
        time, which lets the event-kernel harness skip the intervening
        ticks.  While the actuator has an in-flight plan the controller
        must be stepped every tick (``now``); otherwise the next monitor
        sampling instant bounds the wakeup.  A decision that is already due
        but held back by the cooldown fires on the first *step* after the
        cooldown lapses -- not on a sampling tick -- so a pending decision
        bounds the wakeup by the cooldown-expiry instant as well.
        """
        if self.actuator.busy:
            return now
        wake = self._next_sample(now)
        if self.monitor.decision_due():
            if self._last_action_time is None:
                return now
            cooldown_end = self._last_action_time + self.cooldown_seconds
            return min(wake, max(now, cooldown_end))
        return wake
