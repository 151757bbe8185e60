"""Event queue and counters for the simulator's fast-forward path.

:class:`~repro.simulation.cluster.ClusterSimulator` advances simulated time
directly to the next *meaningful* timestamp instead of re-solving an
identical closed-loop fixed point every tick.  Two pieces live here:

* :class:`EventLoop` -- a heapq-backed priority queue of internal simulator
  events (node boot/restart completions, major-compaction completions).
  Events are *horizon markers*: they bound how far the simulator may fast-
  forward a quiescent stretch.  The per-tick state machinery
  (``_advance_node_states`` / ``_progress_compactions``) still performs the
  actual transitions, so a stale or early event is harmless -- it merely
  forces an extra real solve -- while a *missing* event would let the
  simulator skip past a state change.  Every mutator that creates future
  work must therefore schedule an event at (or conservatively before) the
  first tick whose solve could differ.

* :class:`KernelStats` -- counters separating real fixed-point solves from
  reused and fast-forwarded ticks; the benchmark's ``kernel.*`` metrics
  and the quiescence regression tests read these.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

#: Event kinds understood by the simulator's staleness checks.
EVENT_NODE_ONLINE = "node_online"
EVENT_COMPACTION_DONE = "compaction_done"


@dataclass(frozen=True)
class SimulationEvent:
    """One scheduled internal event.

    ``payload`` identifies the entity the event concerns (a node name plus,
    for lifecycle events, the ``state_until`` deadline it was scheduled
    against, so rescheduled restarts invalidate their stale predecessors).
    """

    time: float
    kind: str
    payload: tuple


class EventLoop:
    """Priority queue of :class:`SimulationEvent`, earliest first.

    Uses lazy invalidation: superseded events stay in the heap until a
    staleness predicate discards them during a :meth:`horizon` query.  Ties
    on time break by insertion order (a monotonic sequence number), so
    replays are deterministic.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, SimulationEvent]] = []
        self._seq = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, time: float, kind: str, payload: tuple = ()) -> SimulationEvent:
        """Queue an event at ``time`` and return it."""
        event = SimulationEvent(time=time, kind=kind, payload=payload)
        heapq.heappush(self._heap, (time, next(self._seq), event))
        return event

    def peek(self) -> SimulationEvent | None:
        """The earliest queued event, or ``None`` when empty."""
        return self._heap[0][2] if self._heap else None

    def pop(self) -> SimulationEvent | None:
        """Remove and return the earliest queued event."""
        if not self._heap:
            return None
        return heapq.heappop(self._heap)[2]

    def clear(self) -> None:
        """Drop every queued event."""
        self._heap.clear()

    def horizon(
        self, now: float, stale: Callable[[SimulationEvent], bool]
    ) -> float:
        """Earliest live event time, pruning stale entries.

        Returns ``now`` when a live event is already due (the caller must
        solve the very next tick), the event's time when the earliest live
        event lies in the future, and ``inf`` when the queue drains -- the
        caller may then fast-forward bounded only by external constraints
        (schedules, samplers, controllers).
        """
        heap = self._heap
        while heap:
            event = heap[0][2]
            if stale(event):
                heapq.heappop(heap)
                continue
            if event.time > now + 1e-9:
                return event.time
            return now
        return float("inf")


@dataclass
class KernelStats:
    """How the simulator spent its simulated ticks.

    ``ticks`` counts every simulated tick; each tick is either a real
    ``solve``, a ``reused`` tick (cached fixed point replayed through a
    normal :meth:`ClusterSimulator.tick`), or a ``skipped`` tick covered by
    a fast-forwarded macro-tick (``macro_batches`` counts the batches).
    """

    ticks: int = 0
    solves: int = 0
    reused_ticks: int = 0
    skipped_ticks: int = 0
    macro_batches: int = 0
    #: Optional notes populated by instrumentation (tests only).
    extra: dict = field(default_factory=dict)

    @property
    def steady_fraction(self) -> float:
        """Fraction of ticks that did not need a real fixed-point solve."""
        if self.ticks <= 0:
            return 0.0
        return 1.0 - self.solves / self.ticks

    def reset(self) -> None:
        """Zero all counters (used between benchmark phases)."""
        self.ticks = 0
        self.solves = 0
        self.reused_ticks = 0
        self.skipped_ticks = 0
        self.macro_batches = 0
        self.extra.clear()
