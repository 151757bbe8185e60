"""An OpenStack-like IaaS provider.

MeT leverages an existing IaaS as the basic provider of elasticity
(Section 4): the Actuator asks the IaaS to start a virtual machine before
starting a RegionServer on it, and releases the VM after decommissioning.
This package models that provider: flavors, an instance inventory, quota and
boot latency.
"""

from repro.iaas.faults import FaultInjector
from repro.iaas.flavors import FLAVORS, Flavor
from repro.iaas.provider import IaaSError, OpenStackProvider, QuotaExceededError
from repro.iaas.vm import VirtualMachine, VMState

__all__ = [
    "FLAVORS",
    "FaultInjector",
    "Flavor",
    "OpenStackProvider",
    "IaaSError",
    "QuotaExceededError",
    "VirtualMachine",
    "VMState",
]
