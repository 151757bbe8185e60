"""Capacity planning: sizing queries and monthly cost envelopes.

Turns a fitted :class:`~repro.planner.calibration.CalibrationModel` into
answers to the forward question the scorecard never asks: *how many nodes
for N ops/s (or tpmC) at a p99 SLO, and what does a month of that cost?*

:func:`plan_capacity` enumerates one :class:`PlanOption` per
(flavor, pricing tier, region) combination, sizing each with
``CalibrationModel.nodes_for`` under the declared tail ceilings plus a
demand headroom, and pricing the result through the
:class:`~repro.sla.cost.PricingModel` tier/region multipliers.  The
returned :class:`CapacityPlan` is pure data with a canonical JSON form, so
planning is byte-deterministic given the same model and query.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from repro.planner.calibration import CalibrationModel
from repro.sla.cost import DEFAULT_PRICING, FLAVORS, REGIONSERVER_FLAVOR, PricingModel
from repro.sla.units import OPS_PER_SECOND, from_native_rate

__all__ = ["CapacityPlan", "PlanOption", "MINUTES_PER_MONTH", "plan_capacity"]

#: Billing month: 30 days of machine-minutes.
MINUTES_PER_MONTH = 30 * 24 * 60


@dataclass(frozen=True)
class PlanOption:
    """One sized and priced way to serve the target."""

    flavor: str
    tier: str
    region: str
    nodes: int
    predicted_p95_ms: float
    predicted_p99_ms: float
    #: Fraction of the option's total capacity the (headroom-inflated)
    #: demand occupies.
    utilization: float
    hourly_cost: float
    monthly_cost: float
    feasible: bool

    def as_dict(self) -> dict:
        return {
            "flavor": self.flavor,
            "tier": self.tier,
            "region": self.region,
            "nodes": self.nodes,
            "predicted_p95_ms": _jsonable(self.predicted_p95_ms),
            "predicted_p99_ms": _jsonable(self.predicted_p99_ms),
            "utilization": self.utilization,
            "hourly_cost": self.hourly_cost,
            "monthly_cost": self.monthly_cost,
            "feasible": self.feasible,
        }


def _jsonable(value: float) -> float | None:
    return None if math.isinf(value) else value


@dataclass(frozen=True)
class CapacityPlan:
    """The full answer to one sizing query.

    ``options`` are sorted cheapest-first (feasible before infeasible);
    :meth:`best` is the cheapest feasible option.
    """

    target_rate: float
    unit: str
    native_target: float
    p95_ceiling_ms: float | None
    p99_ceiling_ms: float | None
    headroom: float
    model_fingerprint: str
    pricing: str
    options: tuple[PlanOption, ...]

    def best(self) -> PlanOption | None:
        """Cheapest feasible option, or ``None`` if nothing fits."""
        for option in self.options:
            if option.feasible:
                return option
        return None

    def to_json(self) -> str:
        """Canonical JSON (sorted keys): the byte-determinism handle."""
        payload = {
            "target_rate": self.target_rate,
            "unit": self.unit,
            "native_target": self.native_target,
            "p95_ceiling_ms": self.p95_ceiling_ms,
            "p99_ceiling_ms": self.p99_ceiling_ms,
            "headroom": self.headroom,
            "model_fingerprint": self.model_fingerprint,
            "pricing": self.pricing,
            "options": [option.as_dict() for option in self.options],
        }
        return json.dumps(payload, sort_keys=True, indent=1)

    def render(self, monthly: bool = True, limit: int | None = None) -> str:
        """The sizing table ``scripts/plan.py`` prints."""
        from repro.experiments.reporting import format_table

        rows = []
        options = self.options if limit is None else self.options[:limit]
        for option in options:
            p99 = option.predicted_p99_ms
            row = [
                option.flavor,
                option.tier,
                option.region,
                str(option.nodes) if option.feasible else "-",
                "inf" if math.isinf(p99) else f"{p99:.2f}",
                f"{option.utilization * 100.0:.0f}%" if option.feasible else "-",
                f"{option.hourly_cost:.3f}" if option.feasible else "-",
            ]
            if monthly:
                row.append(f"{option.monthly_cost:,.2f}" if option.feasible else "-")
            row.append("yes" if option.feasible else "NO")
            rows.append(row)
        headers = ["flavor", "tier", "region", "nodes", "p99-ms", "util", "cost/h"]
        if monthly:
            headers.append("cost/month")
        headers.append("fits")
        return format_table(headers, rows)


def plan_capacity(
    model: CalibrationModel,
    target_rate: float,
    unit: str = OPS_PER_SECOND,
    p95_ceiling_ms: float | None = None,
    p99_ceiling_ms: float | None = None,
    pricing: PricingModel = DEFAULT_PRICING,
    flavors: tuple[str, ...] | None = None,
    tiers: tuple[str, ...] | None = None,
    regions: tuple[str, ...] | None = None,
    headroom: float = 0.15,
    max_nodes: int = 512,
) -> CapacityPlan:
    """Size and price every (flavor, tier, region) option for a target.

    ``target_rate`` is stated in ``unit`` (``ops/s`` or any registered
    native unit such as ``tpmC``) and converted to simulator ops/s before
    sizing.  ``headroom`` inflates the demand the plan must absorb without
    breaching, so a plan sized here survives moderate forecast error.
    """
    if target_rate <= 0.0:
        raise ValueError("target rate must be positive")
    if not 0.0 <= headroom < 1.0:
        raise ValueError("headroom must be in [0, 1)")
    native_target = target_rate
    ops_target = from_native_rate(unit, target_rate)
    demand = ops_target * (1.0 + headroom)
    flavor_names = flavors or tuple(sorted(FLAVORS)) + (REGIONSERVER_FLAVOR.name,)
    tier_names = tiers or tuple(name for name, _ in pricing.tiers)
    region_names = regions or tuple(name for name, _ in pricing.regions)
    options: list[PlanOption] = []
    for flavor in flavor_names:
        nodes = model.nodes_for(
            demand,
            p95_ceiling_ms=p95_ceiling_ms,
            p99_ceiling_ms=p99_ceiling_ms,
            flavor=flavor,
            max_nodes=max_nodes,
        )
        feasible = nodes is not None
        sized = nodes if feasible else max_nodes
        p95 = model.predict_p95(demand, sized, flavor)
        p99 = model.predict_p99(demand, sized, flavor)
        capacity = model.flavor_capacity(flavor) * sized
        utilization = demand / capacity if capacity > 0.0 else math.inf
        for tier in tier_names:
            for region in region_names:
                minute_rate = pricing.rate_for(flavor, tier=tier, region=region)
                hourly = sized * minute_rate * 60.0
                monthly = sized * minute_rate * MINUTES_PER_MONTH
                options.append(
                    PlanOption(
                        flavor=flavor,
                        tier=tier,
                        region=region,
                        nodes=sized,
                        predicted_p95_ms=p95,
                        predicted_p99_ms=p99,
                        utilization=utilization,
                        hourly_cost=hourly,
                        monthly_cost=monthly,
                        feasible=feasible,
                    )
                )
    options.sort(
        key=lambda option: (
            not option.feasible,
            option.monthly_cost,
            option.flavor,
            option.tier,
            option.region,
        )
    )
    return CapacityPlan(
        target_rate=target_rate,
        unit=unit,
        native_target=native_target,
        p95_ceiling_ms=p95_ceiling_ms,
        p99_ceiling_ms=p99_ceiling_ms,
        headroom=headroom,
        model_fingerprint=model.fingerprint(),
        pricing=pricing.name,
        options=tuple(options),
    )
