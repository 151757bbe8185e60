"""Virtual machine instances."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.iaas.flavors import Flavor


class VMState(enum.Enum):
    """Lifecycle states of a virtual machine."""

    BUILDING = "building"
    ACTIVE = "active"
    SHUTOFF = "shutoff"
    ERROR = "error"
    DELETED = "deleted"


@dataclass
class VirtualMachine:
    """One instance managed by the IaaS provider."""

    instance_id: str
    name: str
    flavor: Flavor
    state: VMState = VMState.BUILDING
    launched_at: float = 0.0
    active_at: float = 0.0
    terminated_at: float | None = None

    def uptime(self, now: float) -> float:
        """Seconds the instance has been active (0 while building)."""
        if self.state == VMState.BUILDING:
            return 0.0
        end = self.terminated_at if self.terminated_at is not None else now
        return max(0.0, end - self.active_at)
