"""HBase's periodic load balancer, as a harness-driven daemon.

When a node joins a cluster that is *not* managed by MeT (e.g. under the
tiramola baseline), HBase's own balancer eventually redistributes Regions so
every RegionServer serves the same number of them, picking Regions at
random.  Moved Regions lose data locality until a major compaction runs --
the effect the paper points to when explaining why tiramola's added nodes do
not translate into throughput (Section 6.4).
"""

from __future__ import annotations

import random

from repro.core.interfaces import ClusterBackend
from repro.util.rng import make_rng


class HBaseBalancerDaemon:
    """Evens out per-node region counts periodically (random choice of regions)."""

    def __init__(
        self,
        backend: ClusterBackend,
        period_seconds: float = 150.0,
        seed: int | random.Random = 0,
    ) -> None:
        self.backend = backend
        self.period_seconds = period_seconds
        self._rng = make_rng(seed)
        self._last_run: float | None = None

    def step(self, now: float) -> None:
        """Run one balancing round when the period has elapsed."""
        if self._last_run is not None and now - self._last_run < self.period_seconds:
            return
        self._last_run = now
        self.balance()

    def next_wakeup(self, now: float) -> float:
        """Earliest simulated time at which :meth:`step` may do real work.

        Lets the event-kernel harness skip the ticks between balancing
        rounds instead of invoking a guaranteed no-op every tick.
        """
        if self._last_run is None:
            return now
        return self._last_run + self.period_seconds

    def balance(self) -> int:
        """Move regions from over-populated nodes to under-populated ones."""
        online = self.backend.online_node_names()
        if len(online) < 2:
            return 0
        per_node: dict[str, list[str]] = {node: [] for node in online}
        for partition_id, partition in self.backend.partition_stats().items():
            if partition.node in per_node:
                per_node[partition.node].append(partition_id)
        total = sum(len(parts) for parts in per_node.values())
        quota = -(-total // len(online))  # ceil
        floor = total // len(online)
        moves = 0
        donors = [n for n in online if len(per_node[n]) > quota]
        receivers = [n for n in online if len(per_node[n]) < floor] or [
            n for n in online if len(per_node[n]) < quota
        ]
        for receiver in receivers:
            while len(per_node[receiver]) < floor and donors:
                donor = max(donors, key=lambda n: len(per_node[n]))
                if len(per_node[donor]) <= quota:
                    break
                candidates = per_node[donor]
                partition = candidates[self._rng.randrange(len(candidates))]
                self.backend.move_partition(partition, receiver)
                per_node[donor].remove(partition)
                per_node[receiver].append(partition)
                moves += 1
                donors = [n for n in online if len(per_node[n]) > quota]
        return moves
