"""VM flavors (instance types)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Flavor:
    """An instance type offered by the IaaS."""

    name: str
    vcpus: int


#: Flavors mirroring the paper's evaluation nodes (3-4 GB RAM VMs) plus a
#: couple of generic sizes.
FLAVORS: dict[str, Flavor] = {
    "m1.small": Flavor(name="m1.small", vcpus=2),
    "m1.medium": Flavor(name="m1.medium", vcpus=4),
    "m1.large": Flavor(name="m1.large", vcpus=8),
}

#: Flavor used for RegionServer VMs in the elasticity experiments (3 GB RAM).
REGIONSERVER_FLAVOR = Flavor(name="met.regionserver", vcpus=4)
