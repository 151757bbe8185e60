"""The controller scorecard: quality and cost across the catalog.

Runs scenarios under any set of controllers (the paper's MeT-vs-Tiramola
matchup by default; ``"planner"`` joins the same table) and reduces each
run to the numbers the latency-vs-cost trade-off is argued with: SLO
violation-minutes, run cost, tail latency and mean
cluster throughput.  The rendering helpers live in
:mod:`repro.experiments.reporting` and group N controllers side by side;
this module owns the data reduction so experiments, examples and the
campaign pipeline all score controllers the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.reporting import format_matchup

__all__ = [
    "OK_COLUMN",
    "SCORE_COLUMNS",
    "ScorecardRow",
    "render_scorecard",
    "scenario_scorecard",
    "scorecard_row",
]


@dataclass(frozen=True)
class ScorecardRow:
    """One (scenario, controller) cell of the scorecard."""

    scenario: str
    controller: str
    mean_throughput: float
    violation_minutes: float
    cost: float
    machine_minutes: float
    assertions_passed: bool
    #: Worst per-sample tail latency across all tenants (0.0 when the run
    #: recorded no latency distributions).
    p95_ms: float = 0.0
    p99_ms: float = 0.0


#: The metric columns of every controller matchup, as ``(label, format)``
#: pairs over any row carrying the :class:`ScorecardRow` metric fields (the
#: campaign's seed-averaged rows do too); :data:`OK_COLUMN` closes a table.
SCORE_COLUMNS = (
    ("ops/s", lambda row: f"{row.mean_throughput:,.0f}"),
    ("viol-min", lambda row: f"{row.violation_minutes:.1f}"),
    ("p95-ms", lambda row: f"{row.p95_ms:.2f}"),
    ("p99-ms", lambda row: f"{row.p99_ms:.2f}"),
    ("cost", lambda row: f"{row.cost:.3f}"),
    ("mach-min", lambda row: f"{row.machine_minutes:.1f}"),
)
OK_COLUMN = ("ok", lambda row: "yes" if row.assertions_passed else "NO")


def scorecard_row(result) -> ScorecardRow:
    """Reduce one finished :class:`~repro.scenarios.runner.ScenarioRunResult`."""
    return ScorecardRow(
        scenario=result.spec.name,
        controller=result.controller,
        mean_throughput=result.run.mean_throughput,
        violation_minutes=sum(r.violation_minutes for r in result.slo_reports),
        cost=result.cost,
        machine_minutes=result.run.machine_minutes,
        assertions_passed=result.assertions_passed,
        p95_ms=result.run.peak_percentile(95),
        p99_ms=result.run.peak_percentile(99),
    )


def scenario_scorecard(
    scenarios=None,
    controllers: tuple[str, ...] = ("met", "tiramola"),
) -> list[ScorecardRow]:
    """Run every scenario under every controller and reduce to rows.

    ``scenarios`` defaults to the whole canned catalog.  Rows come back grouped by scenario in
    catalog order, controllers in the given order.
    """
    # Imported lazily: repro.scenarios imports the SLA assertion types, so a
    # module-level import here would be circular.
    from repro.scenarios import CANNED_SCENARIOS, run_scenario

    if scenarios is None:
        specs = list(CANNED_SCENARIOS.values())
    else:
        specs = [
            CANNED_SCENARIOS[item] if isinstance(item, str) else item
            for item in scenarios
        ]
    rows: list[ScorecardRow] = []
    for spec in specs:
        for controller in controllers:
            result = run_scenario(spec, controller=controller, keep_simulator=False)
            rows.append(scorecard_row(result))
    return rows


def render_scorecard(rows: list[ScorecardRow]) -> str:
    """Render scorecard rows as a controller matchup table.

    Scenarios appear in row order; each metric shows every controller's
    value side by side (any number of controllers, in first-seen order --
    two-controller output is byte-identical to the historical
    MeT-vs-Tiramola table).  Lower is better for violation-minutes and
    cost, higher for throughput.
    """
    return format_matchup(
        rows,
        key=lambda row: row.scenario,
        group=lambda row: row.controller,
        columns=[*SCORE_COLUMNS, OK_COLUMN],
    )
