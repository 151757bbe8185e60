"""Fault injection at the IaaS boundary.

The paper's elasticity stack assumes the IaaS is the boundary where machines
appear and disappear; faults belong at the same boundary.  A
:class:`FaultInjector` crashes or degrades simulated nodes: the nodes are
the machines, and a run bills their online time, so a crashed node stops
billing when it fails.

Crashes are *recoverable*: the injector remembers what each crashed node
looked like (hardware, configuration, profile) so
:meth:`FaultInjector.recover_crashed_node` can repair the machine and let it
rejoin the cluster -- booting like a fresh node.  This is what
cascading-failure scenarios lean on: a second crash can land while the
first victim is still rebooting.

Target selection is deterministic: when no node is named, the victim is
drawn from the *sorted* online-node list with the injector's seeded RNG, so
scenario runs replay bit-identically from one seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.hbase.config import RegionServerConfig
from repro.util.rng import make_rng

if TYPE_CHECKING:  # keeps iaas a leaf package: no simulation import at runtime
    from repro.simulation.cluster import ClusterSimulator
    from repro.simulation.hardware import HardwareSpec


@dataclass(frozen=True)
class CrashedNode:
    """What a node looked like just before it crashed (for recovery)."""

    name: str
    hardware: "HardwareSpec"
    config: RegionServerConfig
    profile_name: str


class FaultInjector:
    """Crash, slow down and recover nodes of a simulated cluster."""

    def __init__(
        self,
        simulator: ClusterSimulator,
        seed: int | random.Random | None = None,
    ) -> None:
        self.simulator = simulator
        self._rng = make_rng(seed if seed is not None else simulator.rng)
        #: Crash records, in crash order, for recover_crashed_node.
        self._crashed: dict[str, CrashedNode] = {}

    @property
    def crashed_nodes(self) -> list[str]:
        """Names of crashed nodes not yet recovered, oldest crash first."""
        return list(self._crashed)

    def crash_node(self, node: str | None = None) -> str:
        """Crash ``node`` (or a random online node); returns the victim."""
        victim = self._pick(node)
        target = self.simulator.nodes.get(victim)
        # A degraded straggler crashes and is repaired at *full* health (the
        # replacement machine is a fresh one); read the pre-degradation
        # hardware before fail_node discards the degradation record.
        healthy_hardware = (
            self.simulator.base_hardware(victim) if target is not None else None
        )
        self.simulator.fail_node(victim)
        if target is not None:
            self._crashed[victim] = CrashedNode(
                name=victim,
                hardware=healthy_hardware or target.hardware,
                config=target.config,
                profile_name=target.profile_name,
            )
        return victim

    def recover_crashed_node(self, node: str | None = None) -> str:
        """Repair a crashed node: it rejoins the cluster after a fresh boot.

        With ``node=None`` the most recently crashed unrecovered node is
        repaired.  The node rejoins empty (its regions were reassigned at
        crash time) and boots for the simulator's usual boot delay before
        coming online.
        """
        if node is None:
            if not self._crashed:
                raise RuntimeError("no crashed node to recover")
            node = next(reversed(self._crashed))
        try:
            info = self._crashed.pop(node)
        except KeyError:
            raise RuntimeError(f"node {node!r} has not crashed") from None
        self.simulator.add_node(
            name=node,
            config=info.config,
            hardware=info.hardware,
            profile_name=info.profile_name,
            online=False,
        )
        return node

    def slow_node(
        self,
        node: str | None = None,
        factor: float = 0.5,
        cpu: float | None = None,
        disk: float | None = None,
        network: float | None = None,
    ) -> str:
        """Degrade ``node`` (or a random online node).

        ``factor`` scales every budget; the per-resource overrides model
        partial faults -- ``network=0.15`` alone is a congested/partitioned
        link on an otherwise healthy machine.
        """
        victim = self._pick(node)
        self.simulator.degrade_node(victim, factor, cpu=cpu, disk=disk, network=network)
        return victim

    def recover_node(self, node: str) -> None:
        """Restore a previously degraded node to full speed."""
        self.simulator.restore_node(node)

    def _pick(self, node: str | None) -> str:
        if node is not None:
            return node
        online = sorted(n.name for n in self.simulator.online_nodes())
        if not online:
            raise RuntimeError("no online node to inject a fault into")
        return online[self._rng.randrange(len(online))]
