"""Span recorder for the benchmark's traced pass.

The tracer measures the program's layers from outside: it wraps the public
entry points listed in :data:`ENTRIES` and records one span per call.  A
span is ``[parent_id, name, start, end]`` kept in memory; its id is its
1-based position in :attr:`Tracer.spans`, and id 0 is the root (no
enclosing wrapped call).  Nothing under ``src/`` knows it is traced.

A name is patched where it is looked up: a function imported by name into
another module (``repro.scenarios.runner.evaluate_slos``) is replaced in
that module, not where it is defined.  :meth:`Tracer.uninstall` puts every
original attribute back, so the untraced passes that follow run the
program's own objects.

Per-element calls (``LatencySummary.record``/``add_count``,
``MetricSeries.record``) are deliberately not wrapped: they run millions of
times per pass, and a wrapper would cost more than the call.  Their time
lands in the enclosing span's self time.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from dataclasses import dataclass


@dataclass(frozen=True)
class Entry:
    """One wrapped entry point.

    ``target`` is ``"module:attr"`` or ``"module:Class.attr"``; ``also``
    names further modules that bound the same function by name and so must
    be patched too.  The span name is ``"<layer>.<attr>"``.
    """

    layer: str
    target: str
    also: tuple[str, ...] = ()

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.target.split(':')[1].split('.')[-1]}"

    def sites(self) -> list[tuple[object, str]]:
        """Every ``(owner, attribute)`` pair to patch for this entry."""
        module_name, path = self.target.split(":")
        owner = importlib.import_module(module_name)
        *classes, attr = path.split(".")
        for class_name in classes:
            owner = getattr(owner, class_name)
        return [(owner, attr)] + [(importlib.import_module(m), attr) for m in self.also]


#: The layer boundaries the traced pass records, grouped by layer.
ENTRIES: tuple[Entry, ...] = (
    Entry("harness", "repro.experiments.harness:ExperimentHarness.run_for"),
    Entry("cluster", "repro.simulation.cluster:ClusterSimulator.tick"),
    Entry("cluster", "repro.simulation.cluster:ClusterSimulator.macro_tick"),
    Entry("cluster", "repro.simulation.cluster:ClusterSimulator.quiescent_ticks"),
    Entry("solvers", "repro.simulation.solvers:EventSolver.solve"),
    Entry("solvers", "repro.simulation.solvers:EventSolver.reuse"),
    Entry("solvers", "repro.simulation.solvers:binding_summaries"),
    Entry("perfmodel", "repro.simulation.perfmodel:NodeEvaluator.evaluate_rates"),
    Entry("perfmodel", "repro.simulation.perfmodel:NodeEvaluator.latencies"),
    Entry("perfmodel", "repro.simulation.perfmodel:NodeEvaluator.refresh"),
    Entry("metrics", "repro.simulation.metrics:MetricsRegistry.record_many"),
    Entry("metrics", "repro.simulation.metrics:MetricsRegistry.record_many_repeated"),
    Entry("metrics", "repro.simulation.metrics:MetricsRegistry.record_distributions"),
    Entry("metrics", "repro.simulation.metrics:MetricsRegistry.record_distributions_repeated"),
    Entry("metrics", "repro.simulation.metrics:MetricSeries.mean_between"),
    Entry("metrics", "repro.simulation.metrics:DistributionSeries.merged_between"),
    Entry("metrics", "repro.simulation.metrics:DistributionSeries.merged"),
    Entry("latency", "repro.simulation.latency:LatencySummary.merge"),
    Entry("latency", "repro.simulation.latency:LatencySummary.quantile"),
    Entry("latency", "repro.simulation.latency:LatencySummary.scale"),
    Entry("met", "repro.core.framework:MeT.step"),
    Entry("met", "repro.core.framework:MeT.next_wakeup"),
    Entry("tiramola", "repro.elasticity.tiramola:Tiramola.step"),
    Entry("tiramola", "repro.elasticity.tiramola:Tiramola.next_wakeup"),
    Entry("planner", "repro.planner.controller:PlannerController.step"),
    Entry("planner", "repro.planner.controller:PlannerController.next_wakeup"),
    Entry("balancer", "repro.elasticity.daemon:HBaseBalancerDaemon.step"),
    Entry("balancer", "repro.elasticity.daemon:HBaseBalancerDaemon.next_wakeup"),
    Entry("schedule", "repro.scenarios.schedule:EventSchedule.fire_due"),
    Entry("sla", "repro.scenarios.runner:evaluate_slos"),
    Entry("sla", "repro.scenarios.runner:evaluate_assertions"),
    Entry("sla", "repro.sla.scorecard:scorecard_row", also=("repro.campaign.runner",)),
    Entry("trace", "repro.scenarios.trace:result_trace"),
    Entry("trace", "repro.scenarios.trace:trace_to_json"),
    Entry("runner", "repro.scenarios.runner:build_scenario"),
    Entry("campaign", "repro.campaign.store:ResultsStore.append"),
)

#: Layers in the order they are reported.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(entry.layer for entry in ENTRIES))


class Patcher:
    """Replaces attributes and puts every original back, newest first."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner: object, attr: str, make) -> None:
        """Set ``owner.attr`` to ``make(original)``.

        Only attributes defined on ``owner`` itself may be patched, and only
        plain functions: an inherited attribute would be shadowed rather
        than replaced, and a staticmethod/classmethod would lose its binding.
        """
        original = vars(owner)[attr]
        if not isinstance(original, types.FunctionType):
            raise TypeError(f"{owner!r}.{attr} is not a plain function")
        setattr(owner, attr, make(original))
        self._saved.append((owner, attr, original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """Records a span for every call of the installed entry points."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.spans: list[list] = []
        self._stack = [0]
        self._clock = clock
        self._patcher = Patcher()

    def wrap(self, name: str, function):
        """``function`` wrapped so each call records a span named ``name``."""
        spans = self.spans
        stack = self._stack
        clock = self._clock

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = [stack[-1], name, 0.0, 0.0]
            spans.append(span)
            stack.append(len(spans))
            span[2] = clock()
            try:
                return function(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def install(self, entries=ENTRIES) -> None:
        for entry in entries:
            name = entry.name
            for owner, attr in entry.sites():
                self._patcher.patch(owner, attr, lambda original, name=name: self.wrap(name, original))

    def uninstall(self) -> None:
        self._patcher.restore()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread and nest strictly, so a span's children
    never overlap each other and the time they cover is the sum of their
    durations.
    """
    covered = [0.0] * (len(spans) + 1)
    for parent, _, start, end in spans:
        covered[parent] += end - start
    return [end - start - covered[index] for index, (_, _, start, end) in enumerate(spans, start=1)]


def summarise(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``self_s`` and ``total_s`` (summed durations)."""
    summary: dict[str, dict[str, float]] = {}
    for (_, name, start, end), own in zip(spans, self_times(spans)):
        row = summary.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
        row["total_s"] += end - start
    return summary


def spans_document(spans: list[list]) -> dict:
    """The span file's content: integer microseconds from the first start."""
    names = sorted({span[1] for span in spans})
    index = {name: i for i, name in enumerate(names)}
    origin = min((span[2] for span in spans), default=0.0)
    return {
        "fields": ["id", "parent", "name", "start_us", "end_us"],
        "names": names,
        "spans": [
            [i, parent, index[name], round((start - origin) * 1e6), round((end - origin) * 1e6)]
            for i, (parent, name, start, end) in enumerate(spans, start=1)
        ],
    }
