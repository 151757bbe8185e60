"""Runtime context compiled scenario actions execute against.

The context owns the pieces a scenario event needs to touch: the simulator
(whose nodes are the machines faults crash, slow down and repair), the
registered tenants (each carrying its baseline throughput cap) and the
composite load multipliers.
Several load-shaping events can target the same tenant at once (a flash
crowd on top of a diurnal curve); each contributes one keyed multiplier and
the tenant's live target is ``baseline * product(multipliers)``.

Tenants are :class:`~repro.workloads.tenant.TenantWorkload` implementations
(YCSB, TPC-C, ...); the context resolves tenant names to simulator binding
names through its registry, so events stay workload-agnostic strings.
"""

from __future__ import annotations

from repro.hbase.balancer import RandomBalancer
from repro.scenarios.spec import binding_name
from repro.simulation.cluster import ClusterSimulator
from repro.workloads.tenant import TenantWorkload


def no_victim(node: str | None) -> str:
    """The annotation of a fault that found no node to hit."""
    return "no online node" if node is None else f"{node} not in cluster"


class ScenarioContext:
    """Mutable run state shared by every compiled scenario action."""

    def __init__(self, simulator: ClusterSimulator) -> None:
        self.simulator = simulator
        self.rng = simulator.rng
        #: Tenant name -> registered tenant workload, departed tenants
        #: included (drives binding-name resolution).
        self._tenants: dict[str, TenantWorkload] = {}
        #: Tenant name -> tenant workload of every tenant still attached;
        #: its cap (or, uncapped, its nominal estimate) is the modulation
        #: base of the load-shaping events.
        self._active: dict[str, TenantWorkload] = {}
        #: Tenant -> {event key -> multiplier}.
        self._multipliers: dict[str, dict[str, float]] = {}

    # ------------------------------------------------------------------ #
    # tenants
    # ------------------------------------------------------------------ #
    def _binding(self, tenant: str) -> str:
        """Binding name of a tenant, via the registry when it is known.

        Falls back to the YCSB naming convention for tenants the context
        never registered (robustness for hand-driven contexts in tests).
        """
        registered = self._tenants.get(tenant)
        if registered is not None:
            return registered.binding_name
        return binding_name(tenant)

    def register_tenant(self, workload: TenantWorkload) -> None:
        """Record a tenant already in the simulator (its cap is the baseline)."""
        self._tenants[workload.name] = workload
        self._active[workload.name] = workload

    def add_tenant(self, workload: TenantWorkload) -> str:
        """A tenant arrives: create its partitions, place them, attach clients.

        Placement uses HBase's random balancer (what a freshly created table
        gets) seeded from the run's RNG; the new partitions start local to
        their nodes, as freshly loaded data would.
        """
        simulator = self.simulator
        specs = workload.region_specs()
        online = sorted(node.name for node in simulator.online_nodes())
        placement = RandomBalancer(seed=self.rng).assign(
            [spec.region_id for spec in specs], online
        )
        for spec in specs:
            spec.create_in(
                simulator, workload.binding_name, node=placement[spec.region_id]
            )
        simulator.attach_workload(workload.binding())
        self.register_tenant(workload)
        return f"partitions={len(specs)} nodes={len(online)}"

    def remove_tenant(self, tenant: str) -> str:
        """A tenant departs: detach its clients (its data stays, as in HBase).

        The registry entry stays too: the departed tenant's regions keep
        their binding-name label, so later events that touch its data (a
        growth burst on an orphaned dataset) must still resolve the same
        binding name rather than fall back to the YCSB convention.
        """
        name = self._binding(tenant)
        self.simulator.detach_workload(name)
        self._active.pop(tenant, None)
        self._multipliers.pop(tenant, None)
        return f"detached {name}"

    # ------------------------------------------------------------------ #
    # load shaping
    # ------------------------------------------------------------------ #
    def set_load_multiplier(self, tenant: str, key: str, multiplier: float) -> str:
        """Set one event's load multiplier and apply the composite target."""
        if tenant not in self._active:
            # Tenant departed mid-curve: the remaining steps are no-ops.
            return "tenant gone"
        self._multipliers.setdefault(tenant, {})[key] = multiplier
        return self._apply_target(tenant)

    def clear_load_multiplier(self, tenant: str, key: str) -> str:
        """Remove one event's multiplier (end of a flash crowd, ...)."""
        if tenant not in self._active:
            return "tenant gone"
        self._multipliers.get(tenant, {}).pop(key, None)
        return self._apply_target(tenant)

    def _apply_target(self, tenant: str) -> str:
        workload = self._active[tenant]
        baseline = workload.target_ops_per_second
        multipliers = self._multipliers.get(tenant, {})
        if baseline is None and not multipliers:
            # Every curve cleared: an uncapped tenant returns to uncapped
            # instead of staying pinned at its nominal estimate.
            self.simulator.update_workload(
                workload.binding_name, target_ops_per_second=None
            )
            return "target=uncapped"
        base = baseline if baseline is not None else workload.nominal_ops_per_second
        product = 1.0
        for value in multipliers.values():
            product *= value
        target = base * product
        self.simulator.update_workload(
            workload.binding_name, target_ops_per_second=target
        )
        return f"target={target:.1f}"

    def set_mix(self, tenant: str, op_mix: dict[str, float]) -> str:
        """Replace a tenant's operation mix (one mix-shift interpolation step)."""
        if self._binding(tenant) not in self.simulator.bindings:
            return "tenant gone"
        self.simulator.update_workload(self._binding(tenant), op_mix=op_mix)
        mix = " ".join(f"{op}={share:.2f}" for op, share in sorted(op_mix.items()))
        return mix

    def grow_tenant_data(self, tenant: str, factor: float) -> str:
        """Multiply the size of every partition of a tenant (growth burst)."""
        grown = self.simulator.grow_workload_data(self._binding(tenant), factor)
        return f"x{factor:.4f} over {grown} partitions"

    # ------------------------------------------------------------------ #
    # faults
    # ------------------------------------------------------------------ #
    def fault_victim(self, node: str | None) -> str | None:
        """The node a fault hits; ``None`` when there is none to hit.

        A named node may have left the cluster before its fault fires (a
        controller removed it, an earlier crash took it, a scaled-down
        cluster never had it): the fault is then a no-op rather than an
        aborted run.  An anonymous fault draws its victim from the *sorted*
        online nodes with the run's seeded RNG, so it replays from one seed;
        with no node online it is a no-op too, and draws nothing.
        """
        if node is not None:
            return node if node in self.simulator.nodes else None
        online = sorted(n.name for n in self.simulator.online_nodes())
        if not online:
            return None
        return online[self.rng.randrange(len(online))]

    def crash_node(self, node: str | None = None) -> str:
        """Crash ``node`` (or a random online node); returns the victim."""
        victim = self.fault_victim(node)
        if victim is None:
            return no_victim(node)
        self.simulator.fail_node(victim)
        return victim

    def recover_crashed_node(self, node: str | None = None) -> str:
        """Repair a crashed node so it rejoins the cluster after a fresh boot.

        With ``node=None`` the most recently crashed node rejoins.  Tolerant
        of the target not being crashed -- anonymous or named (a scheduled
        rejoin may fire after the victim was already repaired, or an earlier
        random crash may have picked a different machine): the action
        becomes a no-op instead of aborting the run.
        """
        crashed = self.simulator.crashed_nodes
        if node is None:
            if not crashed:
                return "no crashed node"
            node = crashed[-1]
        elif node not in crashed:
            return f"{node} not crashed"
        self.simulator.rejoin_node(node)
        return node

    def slow_node(
        self,
        node: str,
        factor: float,
        cpu: float | None = None,
        disk: float | None = None,
        network: float | None = None,
    ) -> str:
        """Degrade ``node`` (per-resource aware; see ``degrade_node``)."""
        self.simulator.degrade_node(node, factor, cpu=cpu, disk=disk, network=network)
        parts = [f"factor={factor}"]
        for label, value in (("cpu", cpu), ("disk", disk), ("network", network)):
            if value is not None:
                parts.append(f"{label}={value}")
        return f"{node} " + " ".join(parts)

    def recover_node(self, node: str) -> str:
        """Restore a degraded node."""
        self.simulator.restore_node(node)
        return node
