"""Offline campaign analysis: aggregation and comparison tables.

Reduces a results store to the MeT-vs-Tiramola comparison the paper argues
with: per (scenario, scale) rows averaging each controller's metrics over
the seed axis, rendered side by side through the same
:func:`~repro.experiments.reporting.format_matchup` shape as the single-run
scorecard.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.reporting import format_matchup, format_table, percentiles
from repro.sla.scorecard import OK_COLUMN, SCORE_COLUMNS

__all__ = [
    "AggregateRow",
    "aggregate_records",
    "render_campaign_table",
    "render_seed_quantile_table",
]


@dataclass(frozen=True)
class AggregateRow:
    """One (scenario, scale, controller) cell averaged over its seeds."""

    scenario: str
    scale: str
    controller: str
    runs: int
    mean_throughput: float
    violation_minutes: float
    cost: float
    machine_minutes: float
    assertions_passed: bool
    #: Seed-mean of each run's peak tail latency (0.0 for stores written
    #: before the percentile pipeline landed).
    p95_ms: float = 0.0
    p99_ms: float = 0.0

    @property
    def label(self) -> str:
        """Row label: scenario, with the scale suffixed when not baseline."""
        return _label(self.scenario, self.scale)


def _label(scenario: str, scale: str) -> str:
    return scenario if scale == "1x" else f"{scenario}@{scale}"


def _group_by_cell(records: list[dict]) -> dict[tuple[str, str, str], list[dict]]:
    """Records bucketed by (scenario, scale, controller), in order of first
    appearance -- i.e. grid order when the store was written by
    :func:`~repro.campaign.runner.run_campaign`."""
    groups: dict[tuple[str, str, str], list[dict]] = {}
    for record in records:
        key = (record["scenario"], record["scale"], record["controller"])
        groups.setdefault(key, []).append(record)
    return groups


def aggregate_records(records: list[dict]) -> list[AggregateRow]:
    """Average store records over the seed axis.

    Rows come back grouped by first appearance of (scenario, scale), then
    controller.
    """
    rows: list[AggregateRow] = []
    for (scenario, scale, controller), group in _group_by_cell(records).items():
        count = len(group)

        def mean(field: str, default: float = 0.0) -> float:
            return sum(record.get(field, default) for record in group) / count

        rows.append(
            AggregateRow(
                scenario=scenario,
                scale=scale,
                controller=controller,
                runs=count,
                mean_throughput=mean("mean_throughput"),
                violation_minutes=mean("violation_minutes"),
                cost=mean("cost"),
                machine_minutes=mean("machine_minutes"),
                assertions_passed=all(r["assertions_passed"] for r in group),
                p95_ms=mean("p95_ms"),
                p99_ms=mean("p99_ms"),
            )
        )
    return rows


def render_campaign_table(records: list[dict]) -> str:
    """The campaign's controller matchup, one (scenario, scale) per line."""
    rows = aggregate_records(records)
    return format_matchup(
        rows,
        key=lambda row: row.label,
        group=lambda row: row.controller,
        columns=[*SCORE_COLUMNS, ("seeds", lambda row: str(row.runs)), OK_COLUMN],
    )


#: Seed-axis quantiles the p99 table reports.
_QUANTILE_POINTS = (5, 25, 50, 75, 95)


def render_seed_quantile_table(records: list[dict]) -> str:
    """Quantiles of each run's peak p99 latency over the seed axis, one
    group per line.

    The aggregate table answers "what happens on average"; this one answers
    "how bad does the unlucky seed get" -- the question a tail-latency SLO
    is about.  Groups follow the same first-appearance (scenario, scale,
    controller) order as :func:`aggregate_records`; quantiles are the
    linearly interpolated :func:`~repro.experiments.reporting.percentiles`.
    """
    headers = ["scenario", "controller", "seeds"] + [f"p{p}" for p in _QUANTILE_POINTS]
    rows = []
    for (scenario, scale, controller), group in _group_by_cell(records).items():
        values = [float(record.get("p99_ms", 0.0)) for record in group]
        spread = percentiles(values, points=_QUANTILE_POINTS)
        rows.append(
            [_label(scenario, scale), controller, str(len(values))]
            + [f"{spread[p]:.2f}" for p in _QUANTILE_POINTS]
        )
    return "seed-axis quantiles of p99_ms\n" + format_table(headers, rows)

