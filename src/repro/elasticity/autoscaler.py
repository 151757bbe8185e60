"""Common skeleton of the elasticity controllers.

MeT, the tiramola baseline and the planner are all *controllers*: they
observe a cluster backend and occasionally act on it.  The experiment
harness drives every controller through two methods: ``step(now)`` to act
and ``next_wakeup(now)`` to say how long it may sleep, so quiescent ticks
can be fast-forwarded.  The :class:`Autoscaler` base declares both and
holds what the three share -- the sampling cadence (a sample every
``period_seconds``), the cooldown between actions and one
:class:`AutoscalerLog` of decisions, so every run answers "why did the
controller act" in the same shape.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.core.interfaces import ClusterBackend


class AutoscalerAction(str, enum.Enum):
    """Kinds of scaling actions a controller can take."""

    ADD_NODE = "add_node"
    REMOVE_NODE = "remove_node"
    NONE = "none"
    HEALTHY = "healthy"
    PLAN = "plan"
    PLAN_COMPLETE = "plan-complete"


@dataclass
class ScalingEvent:
    """One recorded scaling action."""

    timestamp: float
    action: AutoscalerAction
    node: str | None = None
    detail: str = ""


@dataclass
class AutoscalerLog:
    """Action history of a controller."""

    events: list[ScalingEvent] = field(default_factory=list)

    def record(
        self,
        timestamp: float,
        action: AutoscalerAction,
        node: str | None = None,
        detail: str = "",
    ) -> None:
        """Append one event."""
        self.events.append(
            ScalingEvent(timestamp=timestamp, action=action, node=node, detail=detail)
        )

    def count(self, action: AutoscalerAction) -> int:
        """Number of events of a given kind."""
        return sum(1 for event in self.events if event.action == action)


class Autoscaler(ABC):
    """Base class for elasticity controllers driven by the harness.

    Subclasses call :meth:`_sample_due` / :meth:`_next_sample` for the
    monitoring cadence and :meth:`_in_cooldown` before acting; they stamp
    ``_last_sample_time`` when they sample and ``_last_action_time`` when
    an action starts the cooldown.
    """

    def __init__(
        self, backend: ClusterBackend, period_seconds: float, cooldown_seconds: float
    ) -> None:
        self.backend = backend
        self.log = AutoscalerLog()
        self.period_seconds = period_seconds
        self.cooldown_seconds = cooldown_seconds
        self._last_sample_time: float | None = None
        self._last_action_time: float | None = None

    @abstractmethod
    def step(self, now: float) -> None:
        """Observe the cluster at time ``now`` and act if needed."""

    @abstractmethod
    def next_wakeup(self, now: float) -> float:
        """Earliest simulated time at which :meth:`step` may do real work.

        ``step(t)`` must be a no-op for every ``t`` strictly below the
        returned time; ``now`` asks to be stepped every tick and ``inf``
        never to be woken.
        """

    def _sample_due(self, now: float) -> bool:
        """Whether a monitoring sample is due at ``now``."""
        if self._last_sample_time is None:
            return True
        return now - self._last_sample_time >= self.period_seconds - 1e-9

    def _next_sample(self, now: float) -> float:
        """Earliest time at which :meth:`_sample_due` becomes true.

        ``_sample_due(t)`` is false for every ``t`` strictly below the
        returned time, so the harness may fast-forward up to it.
        """
        if self._last_sample_time is None:
            return now
        return self._last_sample_time + self.period_seconds - 1e-9

    def _in_cooldown(self, now: float) -> bool:
        """Whether the last action is too recent to act again."""
        if self._last_action_time is None:
            return False
        return now - self._last_action_time < self.cooldown_seconds
