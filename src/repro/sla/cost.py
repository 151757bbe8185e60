"""Flavors and pricing: machine-minutes to money.

The paper's Section 6.4 judges elasticity controllers on machine-time as
well as throughput.  Every simulator node is one RegionServer VM, so a
run's bill is one number: its harness-observed machine-minutes at the
:data:`REGIONSERVER_FLAVOR` rate of :data:`DEFAULT_PRICING` (see
:attr:`~repro.scenarios.runner.ScenarioRunResult.cost`).  Scenario
assertions (``CostCeiling``) and the controller scorecard compare
controllers on it; the planner prices other flavors, tiers and regions
from the same rate table.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "DEFAULT_PRICING",
    "FLAVORS",
    "ON_DEMAND_TIER",
    "REGIONSERVER_FLAVOR",
    "Flavor",
    "PricingModel",
]


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

#: The baseline pricing tier every model carries at multiplier 1.0.
ON_DEMAND_TIER = "on-demand"


@dataclass(frozen=True)
class PricingModel:
    """Per-flavor machine-minute rates (currency units per minute).

    ``rates`` is a tuple of ``(flavor_name, rate)`` pairs so pricing models
    stay hashable frozen data.  Flavors missing from the table bill at
    ``default_rate``.

    ``tiers`` and ``regions`` are multiplier tables applied on top of the
    flavor rate: a spot tier discounts it, an expensive region inflates it.
    """

    name: str
    rates: tuple[tuple[str, float], ...]
    default_rate: float = 0.001
    tiers: tuple[tuple[str, float], ...] = ((ON_DEMAND_TIER, 1.0),)
    regions: tuple[tuple[str, float], ...] = (("default", 1.0),)

    def tier_multiplier(self, tier: str | None = None) -> float:
        """Multiplier of one pricing tier (``None`` = on-demand, 1.0)."""
        if tier is None:
            return 1.0
        for name, multiplier in self.tiers:
            if name == tier:
                return multiplier
        raise KeyError(
            f"unknown pricing tier {tier!r} in model {self.name!r};"
            f" available: {[name for name, _ in self.tiers]}"
        )

    def region_multiplier(self, region: str | None = None) -> float:
        """Multiplier of one region (``None`` = home region, 1.0)."""
        if region is None:
            return 1.0
        for name, multiplier in self.regions:
            if name == region:
                return multiplier
        raise KeyError(
            f"unknown region {region!r} in model {self.name!r};"
            f" available: {[name for name, _ in self.regions]}"
        )

    def rate_for(
        self,
        flavor: str,
        tier: str | None = None,
        region: str | None = None,
    ) -> float:
        """Rate (per machine-minute) of one flavor under a tier/region."""
        base = self.default_rate
        for name, rate in self.rates:
            if name == flavor:
                base = rate
                break
        return base * self.tier_multiplier(tier) * self.region_multiplier(region)


#: Hourly-style rates expressed per machine-minute: generic OpenStack sizes
#: plus the paper's RegionServer VM.  Absolute values are arbitrary (any
#: consistent tariff ranks controllers identically); ratios follow size.
DEFAULT_PRICING = PricingModel(
    name="on-demand-v1",
    rates=(
        ("m1.small", 0.03 / 60.0),
        ("m1.medium", 0.06 / 60.0),
        ("m1.large", 0.12 / 60.0),
        (REGIONSERVER_FLAVOR.name, 0.05 / 60.0),
    ),
    default_rate=0.06 / 60.0,
    # Tier discounts follow typical cloud ratios: spot ~65% off with
    # preemption risk (the simulator doesn't model preemption yet, so spot
    # plans are "if nothing is reclaimed" floors), reserved ~38% off for a
    # committed term.
    tiers=(
        (ON_DEMAND_TIER, 1.0),
        ("spot", 0.35),
        ("reserved", 0.62),
    ),
    regions=(
        ("default", 1.0),
        ("us-east", 0.95),
        ("eu-west", 1.12),
    ),
)
