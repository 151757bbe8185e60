"""A tiramola-style autoscaler (Konstantinou et al., CIKM'11).

The baseline the paper compares against in Section 6.4.  Like Amazon Cloud
Watch + Auto Scaling, it is oblivious to the underlying NoSQL system: it
watches system-level metrics only (CPU usage and I/O wait), adds a node
when enough nodes exceed the high threshold, and removes a node only when
*every* node in the cluster is under-utilised (this behaviour is not
parameterisable -- Section 6.4).  It never reconfigures nodes, never
rebalances data and never triggers compactions; region placement after an
add/remove is whatever the database's random balancer does.

Sampling semantics
------------------

Every ``monitor_period_seconds`` the controller records one load sample
(max of CPU and I/O wait) per *online* node.  Decisions follow the same
windowing rule MeT's monitor documents in :mod:`repro.monitoring.smoothing`:

* the window is bounded -- each node retains at most ``decision_samples``
  observations, so time spent in cooldown cannot inflate the window and the
  first post-cooldown decision averages only the freshest samples;
* the window resets whenever a decision is evaluated, and in particular
  whenever an actuator action fires -- observations taken before the last
  add/remove never leak into the next decision;
* nodes that went offline mid-window (a crash, a concurrent removal) are
  dropped at decision time: quorum and the all-idle test are computed over
  the currently online population only, so a dead node can neither suppress
  a needed ADD nor licence a REMOVE of a healthy node.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.core.interfaces import ClusterBackend
from repro.elasticity.autoscaler import Autoscaler, AutoscalerAction
from repro.hbase.config import DEFAULT_HOMOGENEOUS


@dataclass(frozen=True)
class TiramolaPolicy:
    """Threshold rules of the autoscaler.

    Attributes:
        high_load_threshold: a node is overloaded above this load.
        low_load_threshold: a node is under-utilised below this load.
        add_quorum: fraction of overloaded nodes that triggers an add.
        monitor_period_seconds: metric sampling period (30 s, as in MeT).
        decision_samples: samples per decision, to smooth spikes.
        cooldown_seconds: minimum time between scaling actions (a VM must
            boot and the cluster settle before acting again).
        min_nodes: never shrink below this size.
        max_nodes: never grow beyond this size.
    """

    high_load_threshold: float = 0.85
    low_load_threshold: float = 0.30
    add_quorum: float = 0.50
    monitor_period_seconds: float = 30.0
    decision_samples: int = 6
    cooldown_seconds: float = 180.0
    min_nodes: int = 1
    max_nodes: int = 64


class Tiramola(Autoscaler):
    """System-metric threshold autoscaler with homogeneous nodes."""

    def __init__(
        self,
        backend: ClusterBackend,
        policy: TiramolaPolicy | None = None,
    ) -> None:
        self.policy = policy or TiramolaPolicy()
        super().__init__(
            backend, self.policy.monitor_period_seconds, self.policy.cooldown_seconds
        )
        self._samples: dict[str, deque[float]] = {}
        self._samples_taken = 0

    # ------------------------------------------------------------------ #
    # controller loop
    # ------------------------------------------------------------------ #
    def step(self, now: float) -> None:
        """Sample system metrics and add/remove a node when thresholds fire."""
        if not self._sample_due(now):
            return
        self._sample(now)
        if self._samples_taken < self.policy.decision_samples:
            return
        if self._in_cooldown(now):
            return
        loads = self._average_loads()
        self._reset_window()
        if not loads:
            return
        online = len(loads)
        overloaded = sum(1 for load in loads.values() if load > self.policy.high_load_threshold)
        all_idle = all(load < self.policy.low_load_threshold for load in loads.values())
        if overloaded / online >= self.policy.add_quorum and online < self.policy.max_nodes:
            name = self.backend.add_node(DEFAULT_HOMOGENEOUS, "default")
            self._last_action_time = now
            self.log.record(now, AutoscalerAction.ADD_NODE, node=name, detail=f"overloaded={overloaded}/{online}")
        elif all_idle and online > self.policy.min_nodes:
            # Remove the node serving the fewest requests.
            victim = self._least_loaded_node(loads)
            if victim is not None:
                self.backend.remove_node(victim)
                self._last_action_time = now
                self.log.record(now, AutoscalerAction.REMOVE_NODE, node=victim, detail="all nodes idle")

    def next_wakeup(self, now: float) -> float:
        """Earliest simulated time at which :meth:`step` may do real work.

        ``step(t)`` returns immediately unless a metric sample is due, so
        the next sampling instant bounds how far the event-kernel harness
        may fast-forward without consulting this controller.
        """
        return self._next_sample(now)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _sample(self, now: float) -> None:
        self._last_sample_time = now
        window = self.policy.decision_samples
        # The window is bounded: cooldown ticks must not grow it past
        # ``decision_samples``, or the first post-cooldown decision would
        # average pre-settle load from the whole cooldown.
        self._samples_taken = min(self._samples_taken + 1, window)
        for name in self.backend.online_node_names():
            metrics = self.backend.node_system_metrics(name)
            load = max(metrics.get("cpu", 0.0), metrics.get("io_wait", 0.0))
            self._samples.setdefault(name, deque(maxlen=window)).append(load)

    def _reset_window(self) -> None:
        """Discard the observation window (after each decision/action)."""
        self._samples = {}
        self._samples_taken = 0

    def _average_loads(self) -> dict[str, float]:
        # Nodes that went offline mid-window (crashed, or removed by someone
        # else) are dropped: the decision must describe the nodes that are
        # actually serving, not ghosts whose samples stopped accumulating.
        online = set(self.backend.online_node_names())
        return {
            name: sum(values) / len(values)
            for name, values in self._samples.items()
            if values and name in online
        }

    def _least_loaded_node(self, loads: dict[str, float]) -> str | None:
        online = set(self.backend.online_node_names())
        candidates = {name: load for name, load in loads.items() if name in online}
        if not candidates:
            return None
        return min(candidates, key=candidates.get)
