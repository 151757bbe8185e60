"""SLO and cost accounting: per-tenant quality signals, judged and priced.

The simulator computes per-tenant latencies internally on every tick; this
package is the layer that turns them into first-class service-quality
artefacts:

* :mod:`repro.sla.slo` -- :class:`SLODefinition` (latency ceiling and/or
  throughput floor per tenant) and the evaluator producing per-sample
  violation series and aggregate violation-minutes;
* :mod:`repro.sla.cost` -- the IaaS flavors and the :class:`PricingModel`
  that prices them; a run's bill is its machine-minutes at the RegionServer
  flavor's rate;
* :mod:`repro.sla.scorecard` -- the controller scorecard
  (violation-minutes, cost, throughput) across the scenario catalog, for
  any set of controllers (MeT, Tiramola, planner, ...).

Scenario specs declare SLOs (``ScenarioSpec.slos``) and SLO/cost assertions
(``LatencyWithin``, ``SLOViolationsBelow``, ``CostCeiling``); the scenario
runner evaluates both and serialises the verdicts into golden traces, so
service quality is regression-locked alongside raw throughput.
"""

from repro.sla.cost import (
    DEFAULT_PRICING,
    FLAVORS,
    ON_DEMAND_TIER,
    REGIONSERVER_FLAVOR,
    Flavor,
    PricingModel,
)
from repro.sla.slo import (
    SLODefinition,
    SLOReport,
    SLOViolation,
    evaluate_slo,
    evaluate_slos,
    tenant_points,
)
from repro.sla.units import (
    OPS_PER_SECOND,
    TPMC,
    RATE_UNITS,
    from_native_rate,
    to_native_rate,
)

__all__ = [
    "DEFAULT_PRICING",
    "FLAVORS",
    "ON_DEMAND_TIER",
    "OPS_PER_SECOND",
    "RATE_UNITS",
    "REGIONSERVER_FLAVOR",
    "TPMC",
    "Flavor",
    "PricingModel",
    "SLODefinition",
    "SLOReport",
    "SLOViolation",
    "evaluate_slo",
    "evaluate_slos",
    "from_native_rate",
    "tenant_points",
    "to_native_rate",
]


def __getattr__(name: str):
    # The scorecard pulls in repro.scenarios (which imports the assertion
    # DSL, which imports this package), so it is exposed lazily to keep the
    # import graph acyclic: ``from repro.sla import scenario_scorecard``.
    if name in ("ScorecardRow", "render_scorecard", "scenario_scorecard", "scorecard_row"):
        from repro.sla import scorecard

        return getattr(scorecard, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
