"""HBase's default region balancer.

HBase's out-of-the-box balancer randomly distributes Regions so that every
RegionServer serves the same *number* of Regions, regardless of how hot each
Region is -- the behaviour the paper's Random-Homogeneous strategy captures.
"""

from __future__ import annotations

import random

from repro.util.rng import make_rng


class RandomBalancer:
    """The default HBase placement: even region *counts*, random choice."""

    def __init__(self, seed: int | random.Random | None = None) -> None:
        self._rng = make_rng(seed)

    def assign(self, region_names: list[str], server_names: list[str]) -> dict[str, str]:
        """Return a mapping region name -> server name."""
        if not server_names:
            raise ValueError("cannot balance onto an empty server list")
        shuffled = list(region_names)
        self._rng.shuffle(shuffled)
        assignment: dict[str, str] = {}
        per_server = {server: 0 for server in server_names}
        quota = -(-len(region_names) // len(server_names))  # ceil division
        for region in shuffled:
            candidates = [s for s in server_names if per_server[s] < quota]
            server = self._rng.choice(candidates)
            assignment[region] = server
            per_server[server] += 1
        return assignment
