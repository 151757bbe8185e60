"""Compiling scenario specs into timed event schedules.

A :class:`ScenarioSpec` is pure data; :func:`compile_spec` turns it into an
:class:`EventSchedule` -- a time-ordered list of :class:`ScheduledAction`
thunks bound to a live :class:`~repro.scenarios.context.ScenarioContext`.
The experiment harness fires due actions before each tick.

Continuous stimuli (sinusoidal load, mix interpolation, data growth) are
discretised at the spec's ``control_interval_seconds`` into many silent
steps; discrete events (tenant churn, faults, phase boundaries) compile to
single *annotated* actions that end up in the run's annotation list and in
golden traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.scenarios.context import ScenarioContext
from repro.scenarios.spec import ScenarioSpec


@dataclass
class ScheduledAction:
    """One timed action of a compiled scenario.

    ``apply`` runs against the bound context and may return a detail string;
    ``annotate`` marks events worth recording in the run (discrete scenario
    events) as opposed to the silent control steps of continuous curves.
    """

    time_seconds: float
    label: str
    apply: Callable[[], str | None]
    annotate: bool = False
    detail: str = ""

    def fire(self) -> "ScheduledAction":
        """Execute the action, capturing its detail string."""
        self.detail = self.apply() or ""
        return self


@dataclass
class EventSchedule:
    """A time-ordered queue of scheduled actions."""

    actions: list[ScheduledAction] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Stable sort: actions at the same instant keep spec order.
        self.actions = sorted(self.actions, key=lambda a: a.time_seconds)
        self._cursor = 0

    def fire_due(self, now: float) -> list[ScheduledAction]:
        """Fire (and return) every action due at or before ``now``."""
        fired: list[ScheduledAction] = []
        actions = self.actions
        while self._cursor < len(actions):
            action = actions[self._cursor]
            if action.time_seconds > now + 1e-9:
                break
            self._cursor += 1
            fired.append(action.fire())
        return fired

    def next_time(self) -> float | None:
        """Scheduled time of the next unfired action (``None`` when drained).

        The experiment harness uses this to bound how far the event kernel
        may fast-forward: no tick whose pre-tick fire check would have
        fired an action may be skipped.
        """
        if self._cursor < len(self.actions):
            return self.actions[self._cursor].time_seconds
        return None


def control_steps(
    spec: ScenarioSpec, start_minute: float, end_minute: float
) -> list[float]:
    """Control-step times (seconds) covering ``[start, end]`` minutes.

    Includes both endpoints so a curve lands exactly on its final value --
    compile-time evaluation of continuous events samples these instants.
    """
    start = start_minute * 60.0
    end = min(end_minute, spec.duration_minutes) * 60.0
    if end < start:
        return []
    steps = []
    t = start
    while t < end - 1e-9:
        steps.append(t)
        t += spec.control_interval_seconds
    steps.append(end)
    return steps


def compile_spec(spec: ScenarioSpec, context: ScenarioContext) -> EventSchedule:
    """Compile every event of ``spec`` against ``context`` into a schedule."""
    actions: list[ScheduledAction] = []
    for event in spec.events:
        actions.extend(event.compile(spec, context))
    return EventSchedule(actions)
