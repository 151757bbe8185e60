"""The OpenStack-like provider: launch, poll and terminate instances."""

from __future__ import annotations

import itertools

from repro.iaas.flavors import FLAVORS, Flavor
from repro.iaas.vm import VirtualMachine, VMState
from repro.simulation.clock import SimulationClock


class IaaSError(RuntimeError):
    """Raised on invalid instance operations."""


class QuotaExceededError(IaaSError):
    """Raised when launching would exceed the tenant's instance quota."""


class OpenStackProvider:
    """A minimal compute API: boot, describe, and terminate instances.

    Instances take ``boot_seconds`` of simulated time to become ACTIVE; the
    actuator polls :meth:`refresh` (or the simulator drives it) to observe
    the transition, mirroring how MeT waits for OpenStack VMs before starting
    the database process on them.
    """

    def __init__(
        self,
        clock: SimulationClock,
        quota: int = 32,
        boot_seconds: float = 90.0,
    ) -> None:
        self.clock = clock
        self.quota = quota
        self.boot_seconds = boot_seconds
        self.instances: dict[str, VirtualMachine] = {}
        self._counter = itertools.count(1)

    # ------------------------------------------------------------------ #
    # compute API
    # ------------------------------------------------------------------ #
    def launch(self, name: str, flavor: Flavor | str = "m1.medium") -> VirtualMachine:
        """Boot a new instance of the given flavor."""
        if isinstance(flavor, str):
            try:
                flavor = FLAVORS[flavor]
            except KeyError:
                raise IaaSError(f"unknown flavor {flavor!r}") from None
        if len(self.active_or_building()) >= self.quota:
            raise QuotaExceededError(
                f"quota of {self.quota} instances reached; terminate one first"
            )
        instance = VirtualMachine(
            instance_id=f"vm-{next(self._counter)}",
            name=name,
            flavor=flavor,
            launched_at=self.clock.now,
            active_at=self.clock.now + self.boot_seconds,
        )
        self.instances[instance.instance_id] = instance
        return instance

    def terminate(self, instance_id: str) -> None:
        """Terminate an instance."""
        instance = self._instance(instance_id)
        if instance.state == VMState.DELETED:
            return
        instance.state = VMState.DELETED
        instance.terminated_at = self.clock.now

    def inject_fault(self, instance_id: str) -> None:
        """Kill an instance ungracefully (hypervisor/host failure).

        The instance transitions to ERROR instead of DELETED -- the state an
        OpenStack instance shows after a host crash -- and stops accruing
        uptime.  It no longer counts against the quota, but stays in the
        inventory so experiments can report what failed and when.
        """
        instance = self._instance(instance_id)
        if instance.state in (VMState.DELETED, VMState.ERROR):
            return
        instance.state = VMState.ERROR
        instance.terminated_at = self.clock.now

    def describe(self, instance_id: str) -> VirtualMachine:
        """Return instance details after refreshing its state."""
        self.refresh()
        return self._instance(instance_id)

    def refresh(self) -> None:
        """Transition BUILDING instances whose boot time has elapsed."""
        for instance in self.instances.values():
            if instance.state == VMState.BUILDING and self.clock.now >= instance.active_at:
                instance.state = VMState.ACTIVE

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def active_or_building(self) -> list[VirtualMachine]:
        """Instances that count against the quota."""
        return [
            vm
            for vm in self.instances.values()
            if vm.state in (VMState.BUILDING, VMState.ACTIVE)
        ]

    def active(self) -> list[VirtualMachine]:
        """Instances currently ACTIVE."""
        self.refresh()
        return [vm for vm in self.instances.values() if vm.state == VMState.ACTIVE]

    def machine_minutes_by_flavor(self) -> dict[str, float]:
        """Machine-minutes consumed per flavor -- the billing ledger.

        Every instance that ever became ACTIVE contributes its uptime under
        its flavor's name (ERROR/DELETED instances up to their termination),
        which is exactly what a :class:`~repro.sla.cost.PricingModel` turns
        into money.  Sorted by flavor name for deterministic serialisation.
        """
        self.refresh()
        ledger: dict[str, float] = {}
        for vm in self.instances.values():
            minutes = vm.uptime(self.clock.now) / 60.0
            if minutes > 0.0:
                name = vm.flavor.name
                ledger[name] = ledger.get(name, 0.0) + minutes
        return dict(sorted(ledger.items()))

    def _instance(self, instance_id: str) -> VirtualMachine:
        try:
            return self.instances[instance_id]
        except KeyError:
            raise IaaSError(f"unknown instance {instance_id!r}") from None
