#!/usr/bin/env python3
"""Scenario engine gallery: a diurnal load curve with a node failure.

Composes two stimulus families into one custom scenario -- phase-shifted
day/night sinusoids on two tenants, plus a node crash in the middle of
tenant A's peak -- and runs it under MeT, printing the annotated time
series with the per-tenant latency view.  Then runs the *whole* canned
catalog under all three controllers -- MeT, Tiramola, and the
calibration-driven planner -- and prints the scorecard: SLO
violation-minutes, run cost and throughput, side by side (the
quality-per-dollar comparison of the paper's Section 6.4, generalised).

Run with:  PYTHONPATH=src python examples/scenario_gallery.py
"""

from repro.scenarios import (
    CANNED_SCENARIOS,
    DiurnalLoad,
    NodeCrash,
    ScenarioSpec,
    TenantSpec,
    run_scenario,
)
from repro.scenarios.catalog import SMALL_A, SMALL_C
from repro.sla import to_native_rate
from repro.sla.scorecard import render_scorecard, scenario_scorecard


def diurnal_with_failure() -> ScenarioSpec:
    """Day/night load on two tenants; a node dies during A's peak."""
    return ScenarioSpec(
        name="diurnal-with-failure",
        tenants=(
            TenantSpec(SMALL_A, target_ops=2600.0),
            TenantSpec(SMALL_C, target_ops=3200.0),
        ),
        events=(
            DiurnalLoad(tenant="A", period_minutes=8.0, amplitude=0.6),
            DiurnalLoad(tenant="C", period_minutes=8.0, amplitude=0.6, phase_minutes=4.0),
            NodeCrash(minute=6.0),
        ),
        duration_minutes=14.0,
        initial_nodes=3,
        max_nodes=6,
        description="Phase-shifted diurnal curves with a mid-peak node crash.",
    )


def main() -> None:
    spec = diurnal_with_failure()
    result = run_scenario(spec, controller="met", keep_simulator=False)

    print(f"scenario: {spec.name} (seed={spec.seed})")
    print(f"  {spec.description}\n")
    annotations = {round(a.minute): a for a in result.run.annotations}
    print("minute   ops/s   nodes   event")
    for point in result.run.series:
        minute = round(point.minute)
        annotation = annotations.get(minute)
        note = f"{annotation.label} {annotation.detail}" if annotation else ""
        print(f"{minute:6d}  {point.throughput:7,.0f}  {point.nodes:5d}   {note}")

    print("\ncontroller decisions:")
    for decision in result.decisions:
        if decision["kind"] == "healthy":
            continue
        print(f"  minute {decision['minute']:5.1f}  {decision['kind']}  {decision['detail']}")

    print(f"\nfinal nodes: {result.final_nodes}, "
          f"machine-minutes: {result.run.machine_minutes:,.0f}, "
          f"cost: {result.cost:.3f}")

    print("\nper-tenant latency (ms per sampled minute):")
    for tenant, points in sorted(result.run.tenant_series.items()):
        bars = " ".join(f"{p.latency_ms:5.2f}" for p in points)
        print(f"  {tenant:12s} {bars}")

    print("\ncanned catalog (golden-traced under MeT and tiramola):")
    for name, canned in sorted(CANNED_SCENARIOS.items()):
        print(f"  {name:17s} {canned.description}")

    # The TPC-C entries report natively: the simulator measures key-value
    # ops/s, but a transactional tenant's promise is tpmC.
    print("\nmixed tenancy, per-tenant native rates (MeT run):")
    mixed = run_scenario(CANNED_SCENARIOS["mixed_tenancy"], controller="met",
                         keep_simulator=False)
    units = mixed.tenant_units()
    tenants = {t.name: t.workload for t in mixed.spec.tenants}
    for tenant_name, workload in sorted(tenants.items()):
        points = mixed.run.tenant_series[workload.binding_name]
        mean_ops = sum(p.throughput for p in points) / len(points)
        unit = units[workload.binding_name]
        print(f"  {tenant_name:6s} {to_native_rate(unit, mean_ops):8,.0f} {unit}")
    for report in mixed.slo_reports:
        verdict = "held" if report.satisfied else "BROKEN"
        print(f"  slo {report.slo.describe():34s} {verdict}")

    print("\nMeT vs Tiramola vs planner scorecard (full catalog):")
    rows = scenario_scorecard(controllers=("met", "tiramola", "planner"))
    print(render_scorecard(rows))
    for controller in ("met", "tiramola", "planner"):
        mine = [row for row in rows if row.controller == controller]
        print(
            f"  {controller:9s} totals: "
            f"{sum(r.violation_minutes for r in mine):6.1f} violation-minutes, "
            f"cost {sum(r.cost for r in mine):6.3f}, "
            f"{sum(r.machine_minutes for r in mine):7.1f} machine-minutes"
        )


if __name__ == "__main__":
    main()
