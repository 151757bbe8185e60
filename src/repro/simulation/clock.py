"""Simulation clock.

The simulator is time-stepped: it advances the clock in fixed ticks
(default 5 simulated seconds).  Components that need wall-clock style
timestamps (metric samples, event traces, controller decisions) read the
shared clock instead of ``time.time`` so runs are deterministic and can be
replayed.

The clock is the only place simulated time accumulates.  A fast-forwarded
span of ``k`` ticks is one :meth:`SimulationClock.advance` call with
``steps=k``; it returns every tick's end time, and the simulator records
the span's metric samples at exactly those times.  Each step adds ``dt``
to the running float, so the times are bit-identical to ``k`` single
advances even at tick lengths binary floats cannot represent (``0.7``).
"""

from __future__ import annotations

from dataclasses import dataclass


class ClockError(RuntimeError):
    """Raised when the clock is advanced by a non-positive amount."""


@dataclass
class SimulationClock:
    """A monotonically increasing simulated clock.

    Attributes:
        now: current simulated time in seconds.
        tick_seconds: the simulator's default tick length.
    """

    now: float = 0.0
    tick_seconds: float = 5.0

    def advance(self, seconds: float, steps: int = 1) -> list[float]:
        """Advance ``steps`` times by ``seconds``; return each step's end time."""
        if seconds <= 0:
            raise ClockError(f"clock can only move forward, got {seconds!r}")
        times: list[float] = []
        now = self.now
        for _ in range(steps):
            now += seconds
            times.append(now)
        self.now = now
        return times
