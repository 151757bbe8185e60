"""Exponential smoothing of metric observations.

To avoid reacting to temporary load spikes, MeT smooths the observations in
each monitoring window so that the last observation weighs the most and
importance decreases exponentially towards the first one (Section 4.1,
citing Brown's exponential smoothing).  The monitor also discards
observations taken before the last actuator action.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field


@dataclass
class ExponentialSmoother:
    """Exponentially weighted smoothing over a bounded observation window.

    Attributes:
        alpha: smoothing factor in (0, 1]; higher values weigh recent
            observations more.
        window: maximum number of observations retained.
    """

    alpha: float = 0.5
    window: int = 6
    _observations: deque[float] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha!r}")
        if self.window <= 0:
            raise ValueError(f"window must be positive, got {self.window!r}")
        self._observations = deque(maxlen=self.window)

    def observe(self, value: float) -> None:
        """Record one observation; the oldest drops out of a full window."""
        self._observations.append(float(value))

    def reset(self) -> None:
        """Discard all observations (called after each actuator action)."""
        self._observations.clear()

    @property
    def count(self) -> int:
        """Number of retained observations."""
        return len(self._observations)

    def value(self, default: float = 0.0) -> float:
        """Smoothed value; the most recent observation weighs the most."""
        if not self._observations:
            return default
        observations = iter(self._observations)
        smoothed = next(observations)
        for observation in observations:
            smoothed = self.alpha * observation + (1.0 - self.alpha) * smoothed
        return smoothed
