"""Declarative scenario assertions: expected controller behaviour in specs.

A scenario spec can *declare* how a well-behaved controller must react to
its stimuli -- "reconfigure before you provision", "do not thrash nodes",
"recover throughput within N minutes of the crash", "stay inside this
cluster-size envelope" -- instead of burying those expectations in ad-hoc
test code.  Each assertion is pure data attached to
:class:`~repro.scenarios.spec.ScenarioSpec`; after a run, the scenario
runner evaluates every assertion that applies to the run's controller
against the recorded :class:`~repro.experiments.harness.StrategyRun` (time
series + event annotations) and the normalised controller decision log, and
the verdicts are serialised into the run's trace.  Golden traces therefore
lock the *declared* behaviour down alongside the raw numbers: an assertion
silently flipping to ``failed`` shows up as a golden diff.

Vocabulary:

* :class:`ReconfiguresBefore` -- the controller reconfigures what it has
  before resorting to a scaling action (the paper's core MeT-vs-baseline
  divergence, Section 6.4);
* :class:`NoOscillation` -- the add/remove sequence does not thrash: at most
  ``max_flips`` direction changes;
* :class:`RecoversWithin` -- after the last annotation matching a label
  (a crash, the end of a flash crowd), throughput returns to a fraction of
  its pre-event baseline within a deadline;
* :class:`StaysWithin` -- the observed cluster size stays inside
  ``[min_nodes, max_nodes]`` for the whole run;
* :class:`LatencyWithin` -- one tenant's recorded latency series stays
  under a ceiling (the per-tenant quality view of :mod:`repro.sla`);
* :class:`LatencyPercentileWithin` -- one tenant's recorded p95/p99 tail
  (exact window-distribution quantiles) stays under a ceiling;
* :class:`SLOViolationsBelow` -- the spec-declared SLO of a tenant accrues
  at most ``max_violation_minutes`` of violation time;
* :class:`CostCeiling` -- the run's bill stays under a budget.

Every assertion takes a ``controllers`` filter (``None`` = all): an
expectation like "reconfigure first" is meaningful for MeT but vacuous for
a baseline that *cannot* reconfigure, so catalog specs scope it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.sla.cost import DEFAULT_PRICING
from repro.sla.slo import post_warmup_points, tenant_points

__all__ = [
    "ADD_NODE",
    "REMOVE_NODE",
    "RECONFIGURE",
    "AssertionResult",
    "ScenarioAssertion",
    "ReconfiguresBefore",
    "NoOscillation",
    "RecoversWithin",
    "StaysWithin",
    "LatencyWithin",
    "LatencyPercentileWithin",
    "SLOViolationsBelow",
    "CostCeiling",
    "controller_actions",
    "evaluate_assertions",
]

#: Normalised controller action kinds assertions reason about.
ADD_NODE = "add_node"
REMOVE_NODE = "remove_node"
RECONFIGURE = "reconfigure"


@dataclass(frozen=True)
class AssertionResult:
    """Verdict of one assertion against one finished run (trace-able)."""

    assertion: str
    passed: bool
    detail: str = ""


def controller_actions(decisions: list[dict]) -> list[tuple[float, str]]:
    """Normalised ``(minute, kind)`` actions from a run's decision log.

    Tiramola's log is already add/remove events.  A MeT plan bundles several
    mechanisms; it contributes one ``reconfigure`` action when it restarts or
    moves anything, plus add/remove actions for its provisioning components,
    all at the plan's minute -- with ``reconfigure`` first, matching the
    actuator's execution order (Section 5: reconfigure, then provision).
    """
    actions: list[tuple[float, str]] = []
    for decision in decisions:
        kind = decision["kind"]
        minute = decision["minute"]
        if kind == "plan":
            parts = dict(
                part.split("=", 1)
                for part in decision.get("detail", "").split()
                if "=" in part
            )
            if int(parts.get("restarts", 0)) or int(parts.get("moves", 0)):
                actions.append((minute, RECONFIGURE))
            if int(parts.get("adds", 0)):
                actions.append((minute, ADD_NODE))
            if int(parts.get("removes", 0)):
                actions.append((minute, REMOVE_NODE))
        elif kind in (ADD_NODE, REMOVE_NODE):
            actions.append((minute, kind))
    return actions


class ScenarioAssertion:
    """Base class: an expectation evaluated against a finished run.

    Subclasses are frozen dataclasses (specs stay pure data) implementing
    :meth:`evaluate`.  ``controllers`` scopes the expectation; ``None``
    applies under every controller (including ``none``).
    """

    controllers: tuple[str, ...] | None = None

    def applies_to(self, controller: str) -> bool:
        """Whether this assertion is evaluated for ``controller`` runs."""
        return self.controllers is None or controller in self.controllers

    def describe(self) -> str:
        """Canonical name recorded in traces, e.g. ``NoOscillation(max_flips=1)``."""
        args = ", ".join(
            f"{f.name}={getattr(self, f.name)!r}"
            for f in fields(self)  # type: ignore[arg-type]
            if f.name != "controllers" and getattr(self, f.name) != f.default
        )
        return f"{type(self).__name__}({args})"

    def evaluate(self, result) -> AssertionResult:
        """Verdict against a :class:`~repro.scenarios.runner.ScenarioRunResult`."""
        raise NotImplementedError

    def _verdict(self, passed: bool, detail: str) -> AssertionResult:
        return AssertionResult(assertion=self.describe(), passed=passed, detail=detail)


@dataclass(frozen=True)
class ReconfiguresBefore(ScenarioAssertion):
    """The controller reconfigures before its first ``action``.

    Fails when no reconfiguration happened at all, or when the first
    ``action`` (default: adding a node) precedes the first reconfiguration.
    A run where ``action`` never fires passes as long as something was
    reconfigured -- reconfiguration *sufficing* is the strongest outcome.
    """

    action: str = ADD_NODE
    controllers: tuple[str, ...] | None = None

    def evaluate(self, result) -> AssertionResult:
        actions = controller_actions(result.decisions)
        reconfigures = [m for m, kind in actions if kind == RECONFIGURE]
        resorts = [m for m, kind in actions if kind == self.action]
        if not reconfigures:
            return self._verdict(False, "never reconfigured")
        if resorts and min(resorts) <= min(reconfigures):
            return self._verdict(
                False,
                f"first {self.action} at {min(resorts):.1f}m precedes first "
                f"reconfigure at {min(reconfigures):.1f}m",
            )
        when = f"first reconfigure at {min(reconfigures):.1f}m"
        if resorts:
            return self._verdict(True, f"{when}, first {self.action} at {min(resorts):.1f}m")
        return self._verdict(True, f"{when}, no {self.action} needed")


@dataclass(frozen=True)
class NoOscillation(ScenarioAssertion):
    """The add/remove sequence flips direction at most ``max_flips`` times.

    A flip is an add followed (not necessarily adjacently) by a remove or
    vice versa.  ``max_flips=0`` demands a monotone scaling history; a
    diurnal scenario legitimately allows one flip per half-cycle.
    """

    max_flips: int = 0
    controllers: tuple[str, ...] | None = None

    def evaluate(self, result) -> AssertionResult:
        scaling = [
            kind for _, kind in controller_actions(result.decisions)
            if kind in (ADD_NODE, REMOVE_NODE)
        ]
        flips = sum(1 for a, b in zip(scaling, scaling[1:]) if a != b)
        return self._verdict(
            flips <= self.max_flips,
            f"{flips} direction flips over {len(scaling)} scaling actions "
            f"(allowed {self.max_flips})",
        )


@dataclass(frozen=True)
class RecoversWithin(ScenarioAssertion):
    """Throughput recovers within ``minutes`` of the last ``after_label`` event.

    The baseline is the mean throughput over the ``baseline_minutes`` of
    series samples preceding the event; recovery means some sample inside
    the deadline window reaches ``fraction`` of that baseline.  ``after_label``
    matches annotation labels by prefix, so ``"node-crash"`` matches every
    crash and ``"flash-crowd-end"`` matches ``"flash-crowd-end:C"``.
    """

    minutes: float = 5.0
    after_label: str = "node-crash"
    fraction: float = 0.9
    baseline_minutes: float = 2.0
    controllers: tuple[str, ...] | None = None

    def evaluate(self, result) -> AssertionResult:
        events = [
            a.minute for a in result.run.annotations
            if a.label.startswith(self.after_label)
        ]
        if not events:
            return self._verdict(False, f"no {self.after_label!r} annotation in the run")
        event = max(events)
        before = [
            p.throughput for p in result.run.series
            if event - self.baseline_minutes <= p.minute < event
        ]
        if not before:
            return self._verdict(False, f"no samples in the {self.baseline_minutes}m baseline window")
        baseline = sum(before) / len(before)
        needed = self.fraction * baseline
        window = [
            p for p in result.run.series if event < p.minute <= event + self.minutes
        ]
        recovered = next((p for p in window if p.throughput >= needed), None)
        if recovered is not None:
            return self._verdict(
                True,
                f"recovered to {recovered.throughput:.0f} ops/s at "
                f"{recovered.minute:.1f}m (needed {needed:.0f})",
            )
        best = max((p.throughput for p in window), default=0.0)
        return self._verdict(
            False,
            f"best {best:.0f} ops/s within {self.minutes}m of the event at "
            f"{event:.1f}m (needed {needed:.0f})",
        )


@dataclass(frozen=True)
class StaysWithin(ScenarioAssertion):
    """Every observed cluster size stays inside ``[min_nodes, max_nodes]``."""

    min_nodes: int | None = None
    max_nodes: int | None = None
    controllers: tuple[str, ...] | None = None

    def evaluate(self, result) -> AssertionResult:
        low, high = result.run.node_bounds()
        if self.min_nodes is not None and low < self.min_nodes:
            return self._verdict(False, f"shrank to {low} nodes (floor {self.min_nodes})")
        if self.max_nodes is not None and high > self.max_nodes:
            return self._verdict(False, f"grew to {high} nodes (ceiling {self.max_nodes})")
        return self._verdict(True, f"observed {low}..{high} nodes")


@dataclass(frozen=True)
class LatencyWithin(ScenarioAssertion):
    """Every recorded latency sample of ``tenant`` stays under ``ceiling_ms``.

    Judges the per-tenant series the harness records (window means of the
    simulator's tick-level latencies).  ``warmup_minutes`` exempts the
    closed loop's cold start -- samples whose window overlaps the warmup
    are skipped, like :class:`~repro.sla.slo.SLODefinition`.  Fails when
    the tenant recorded no judgeable samples at all -- a silent series is
    a wiring bug, not good latency.
    """

    tenant: str = ""
    ceiling_ms: float = 50.0
    warmup_minutes: float = 1.0
    controllers: tuple[str, ...] | None = None

    def evaluate(self, result) -> AssertionResult:
        points = post_warmup_points(
            tenant_points(result.run, self.tenant), self.warmup_minutes
        )
        if not points:
            return self._verdict(
                False, f"no latency samples recorded for tenant {self.tenant!r}"
            )
        worst = max(points, key=lambda p: p.latency_ms)
        return self._verdict(
            worst.latency_ms <= self.ceiling_ms,
            f"peak {worst.latency_ms:.2f}ms at {worst.minute:.1f}m over "
            f"{len(points)} samples (ceiling {self.ceiling_ms:g}ms)",
        )


@dataclass(frozen=True)
class LatencyPercentileWithin(ScenarioAssertion):
    """Every recorded p95/p99 sample of ``tenant`` stays under ``ceiling_ms``.

    The tail-latency counterpart of :class:`LatencyWithin`: judges the
    per-sample quantiles the harness computes from the exact merged
    window distributions (:class:`~repro.simulation.latency.LatencySummary`),
    so a tenant whose *mean* stays flat while its tail spikes still fails.
    ``percentile`` must be 95 or 99 -- the two the harness records.  Fails
    when no sample carries distribution data -- a run without recorded
    distributions cannot vacuously pass a tail promise.
    """

    tenant: str = ""
    percentile: int = 95
    ceiling_ms: float = 50.0
    warmup_minutes: float = 1.0
    controllers: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.percentile not in (95, 99):
            raise ValueError(
                f"percentile must be 95 or 99, got {self.percentile}"
            )

    def evaluate(self, result) -> AssertionResult:
        attr = f"p{self.percentile}_ms"
        points = [
            p
            for p in post_warmup_points(
                tenant_points(result.run, self.tenant), self.warmup_minutes
            )
            if getattr(p, attr, None) is not None
        ]
        if not points:
            return self._verdict(
                False,
                f"no p{self.percentile} samples recorded for tenant "
                f"{self.tenant!r} (latency distributions disabled?)",
            )
        worst = max(points, key=lambda p: getattr(p, attr))
        observed = getattr(worst, attr)
        return self._verdict(
            observed <= self.ceiling_ms,
            f"peak p{self.percentile} {observed:.2f}ms at {worst.minute:.1f}m "
            f"over {len(points)} samples (ceiling {self.ceiling_ms:g}ms)",
        )


@dataclass(frozen=True)
class SLOViolationsBelow(ScenarioAssertion):
    """The spec-declared SLO of ``tenant`` stays under a violation budget.

    References the scenario's own ``slos`` declaration (the runner evaluates
    those into :attr:`~repro.scenarios.runner.ScenarioRunResult.slo_reports`)
    instead of embedding a second copy of the bounds; fails loudly when the
    spec declares no SLO for the tenant.
    """

    tenant: str = ""
    max_violation_minutes: float = 0.0
    controllers: tuple[str, ...] | None = None

    def evaluate(self, result) -> AssertionResult:
        reports = [r for r in result.slo_reports if r.slo.tenant == self.tenant]
        if not reports:
            return self._verdict(
                False, f"scenario declares no SLO for tenant {self.tenant!r}"
            )
        minutes = sum(report.violation_minutes for report in reports)
        judged = sum(report.samples for report in reports)
        if judged == 0:
            # Zero judged samples is a wiring problem (tenant series not
            # recorded, or the SLO's tenant never ran), not compliance --
            # passing here would silently disable the check.
            return self._verdict(
                False,
                f"SLO for tenant {self.tenant!r} judged no samples "
                "(tenant series missing or tenant never ran)",
            )
        return self._verdict(
            minutes <= self.max_violation_minutes,
            f"{minutes:.1f} violation-minutes over {judged} judged samples "
            f"(budget {self.max_violation_minutes:g})",
        )


@dataclass(frozen=True)
class CostCeiling(ScenarioAssertion):
    """The run's bill stays under ``max_cost``.

    The bill is the run's machine-minutes priced at the RegionServer
    flavor's rate (see :mod:`repro.sla.cost`), so the ceiling is a money
    budget, not a raw machine-minute count.
    """

    max_cost: float = 0.0
    controllers: tuple[str, ...] | None = None

    def evaluate(self, result) -> AssertionResult:
        cost = result.cost
        return self._verdict(
            cost <= self.max_cost,
            f"cost {cost:.3f} for {result.run.machine_minutes:.1f} "
            f"machine-minutes under {DEFAULT_PRICING.name} (ceiling {self.max_cost:g})",
        )


def evaluate_assertions(result) -> list[AssertionResult]:
    """Evaluate every spec assertion applicable to the run's controller."""
    return [
        assertion.evaluate(result)
        for assertion in result.spec.assertions
        if assertion.applies_to(result.controller)
    ]
