"""Pricing models: machine-minutes to money.

The paper's Section 6.4 judges elasticity controllers on machine-time as
well as throughput; a :class:`PricingModel` turns the per-flavor
machine-minute ledger of a run into a :class:`CostEnvelope` -- the costed
summary scenario assertions (``CostCeiling``) and the MeT-vs-Tiramola
scorecard compare controllers on.

A run's ledger is its harness-observed machine-minutes (online node time)
billed at the RegionServer flavor: every simulator node is one
RegionServer VM (see
:attr:`~repro.scenarios.runner.ScenarioRunResult.machine_minute_ledger`).
The planner prices other flavors from the same rate table.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.iaas.flavors import REGIONSERVER_FLAVOR

__all__ = [
    "DEFAULT_PRICING",
    "ON_DEMAND_TIER",
    "PRICING_MODELS",
    "CostEnvelope",
    "FlavorCharge",
    "PricingModel",
    "pricing_model",
]

#: The baseline pricing tier every model carries at multiplier 1.0.
ON_DEMAND_TIER = "on-demand"


@dataclass(frozen=True)
class PricingModel:
    """Per-flavor machine-minute rates (currency units per minute).

    ``rates`` is a tuple of ``(flavor_name, rate)`` pairs so pricing models
    stay hashable frozen data (scenario assertions embed them).  Flavors
    missing from the table bill at ``default_rate``.

    ``tiers`` and ``regions`` are multiplier tables applied on top of the
    flavor rate: a spot tier discounts it, an expensive region inflates it.
    Omitting ``tier``/``region`` (every pre-existing call site) bills the
    on-demand tier in the home region at multiplier 1.0, so the default
    path is unchanged.
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

    def billing_label(self, tier: str | None = None, region: str | None = None) -> str:
        """Envelope label: bare model name on the default path."""
        label = self.name
        if tier is not None:
            label = f"{label}:{tier}"
        if region is not None:
            label = f"{label}@{region}"
        return label

    def cost_of(
        self,
        ledger: dict[str, float],
        tier: str | None = None,
        region: str | None = None,
    ) -> "CostEnvelope":
        """Cost a per-flavor machine-minute ledger into an envelope."""
        charges = tuple(
            FlavorCharge(
                flavor=flavor,
                machine_minutes=minutes,
                cost=minutes * self.rate_for(flavor, tier=tier, region=region),
            )
            for flavor, minutes in sorted(ledger.items())
            if minutes > 0.0
        )
        return CostEnvelope(pricing=self.billing_label(tier, region), charges=charges)


@dataclass(frozen=True)
class FlavorCharge:
    """Billed machine-minutes of one flavor."""

    flavor: str
    machine_minutes: float
    cost: float


@dataclass(frozen=True)
class CostEnvelope:
    """The costed resource summary of one run."""

    pricing: str
    charges: tuple[FlavorCharge, ...]

    @property
    def total(self) -> float:
        """Total run cost (currency units)."""
        return sum(charge.cost for charge in self.charges)

    @property
    def machine_minutes(self) -> float:
        """Total billed machine-minutes across flavors."""
        return sum(charge.machine_minutes for charge in self.charges)


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

#: Named pricing models assertions can reference without embedding tables.
PRICING_MODELS: dict[str, PricingModel] = {
    DEFAULT_PRICING.name: DEFAULT_PRICING,
}


def pricing_model(name: str) -> PricingModel:
    """Look up a registered pricing model by name."""
    try:
        return PRICING_MODELS[name]
    except KeyError:
        raise KeyError(
            f"unknown pricing model {name!r}; available: {sorted(PRICING_MODELS)}"
        ) from None

