"""The IaaS boundary: instance flavors and fault injection.

MeT leverages an existing IaaS as the basic provider of elasticity
(Section 4): the Actuator asks the IaaS for a virtual machine before
starting a RegionServer on it, and releases the VM after decommissioning.
The simulator's node lifecycle is that boundary here -- a node added
offline boots for the IaaS boot delay, and crashes, recoveries and
removals act on the nodes themselves -- so a simulator node *is* the
machine a run rents, and the run bills its harness-observed
machine-minutes at :data:`~repro.iaas.flavors.REGIONSERVER_FLAVOR`.
This package holds the flavors the planner and the pricing model price,
and the :class:`FaultInjector` that crashes, degrades and repairs nodes.
"""

from repro.iaas.faults import FaultInjector
from repro.iaas.flavors import FLAVORS, Flavor

__all__ = [
    "FLAVORS",
    "FaultInjector",
    "Flavor",
]
