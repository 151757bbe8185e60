"""Counters for the simulator's fast-forward path.

:class:`~repro.simulation.cluster.ClusterSimulator` advances simulated time
directly to the next *meaningful* timestamp instead of re-solving an
identical closed-loop fixed point every tick.  How far it may skip is read
off node state (boot/restart deadlines and pending compactions, see
:meth:`~repro.simulation.cluster.ClusterSimulator.quiescent_ticks`);
:class:`KernelStats` records how the ticks were spent -- real fixed-point
solves, reused and fast-forwarded ticks.  The benchmark's ``kernel.*``
metrics and the quiescence regression tests read these counters.
"""

from __future__ import annotations

from dataclasses import dataclass


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
