"""Offline campaign analysis: aggregation, comparison tables, bench report.

Reduces a results store to the MeT-vs-Tiramola comparison the paper argues
with: per (scenario, scale) rows averaging each controller's metrics over
the seed axis, rendered side by side through the same
:func:`~repro.experiments.reporting.format_matchup` shape as the single-run
scorecard.  Plotting is optional and degrades to a no-op when matplotlib is
not installed (the container does not guarantee it).

:func:`write_campaign_bench` writes a small JSON file at the repo root tracking campaign throughput (runs/s) and the
process-pool speedup PR over PR.
"""

from __future__ import annotations

import json
import os
import platform
from dataclasses import dataclass
from pathlib import Path

from repro.experiments.reporting import format_matchup, format_table, percentiles

__all__ = [
    "AggregateRow",
    "aggregate_records",
    "plot_campaign",
    "render_campaign_table",
    "render_seed_quantile_table",
    "write_campaign_bench",
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
        return self.scenario if self.scale == "1x" else f"{self.scenario}@{self.scale}"


def aggregate_records(records: list[dict]) -> list[AggregateRow]:
    """Average store records over the seed axis.

    Rows come back grouped by first appearance of (scenario, scale), then
    controller -- i.e. grid order when the store was written by
    :func:`~repro.campaign.runner.run_campaign`.
    """
    order: list[tuple[str, str, str]] = []
    buckets: dict[tuple[str, str, str], list[dict]] = {}
    for record in records:
        key = (record["scenario"], record["scale"], record["controller"])
        if key not in buckets:
            order.append(key)
            buckets[key] = []
        buckets[key].append(record)
    rows: list[AggregateRow] = []
    for scenario, scale, controller in order:
        group = buckets[(scenario, scale, controller)]
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
        columns=[
            ("ops/s", lambda row: f"{row.mean_throughput:,.0f}"),
            ("viol-min", lambda row: f"{row.violation_minutes:.1f}"),
            ("p95-ms", lambda row: f"{row.p95_ms:.2f}"),
            ("p99-ms", lambda row: f"{row.p99_ms:.2f}"),
            ("cost", lambda row: f"{row.cost:.3f}"),
            ("mach-min", lambda row: f"{row.machine_minutes:.1f}"),
            ("seeds", lambda row: str(row.runs)),
            ("ok", lambda row: "yes" if row.assertions_passed else "NO"),
        ],
    )


def render_seed_quantile_table(
    records: list[dict],
    metric: str = "p99_ms",
    points: tuple[int, ...] = (5, 25, 50, 75, 95),
) -> str:
    """Quantiles of ``metric`` over the seed axis, one group per line.

    The aggregate table answers "what happens on average"; this one answers
    "how bad does the unlucky seed get" -- the question a tail-latency SLO
    is about.  Groups follow the same first-appearance (scenario, scale,
    controller) order as :func:`aggregate_records`; quantiles are the
    linearly interpolated :func:`~repro.experiments.reporting.percentiles`.
    """
    order: list[tuple[str, str, str]] = []
    buckets: dict[tuple[str, str, str], list[float]] = {}
    for record in records:
        key = (record["scenario"], record["scale"], record["controller"])
        if key not in buckets:
            order.append(key)
            buckets[key] = []
        buckets[key].append(float(record.get(metric, 0.0)))
    headers = ["scenario", "controller", "seeds"] + [f"p{p}" for p in points]
    rows = []
    for scenario, scale, controller in order:
        values = buckets[(scenario, scale, controller)]
        label = scenario if scale == "1x" else f"{scenario}@{scale}"
        spread = percentiles(values, points=points)
        rows.append(
            [label, controller, str(len(values))]
            + [f"{spread[p]:.2f}" for p in points]
        )
    return f"seed-axis quantiles of {metric}\n" + format_table(headers, rows)


def plot_campaign(records: list[dict], path: str | Path) -> bool:
    """Write a violation-minutes-vs-cost scatter; False if matplotlib is absent."""
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return False
    rows = aggregate_records(records)
    controllers = sorted({row.controller for row in rows})
    figure, axes = plt.subplots(figsize=(7.0, 5.0))
    for controller in controllers:
        mine = [row for row in rows if row.controller == controller]
        axes.scatter(
            [row.cost for row in mine],
            [row.violation_minutes for row in mine],
            label=controller,
            alpha=0.75,
        )
    axes.set_xlabel("mean run cost")
    axes.set_ylabel("mean SLO violation-minutes")
    axes.set_title("campaign: quality vs cost, averaged over seeds")
    axes.legend()
    figure.tight_layout()
    figure.savefig(path, dpi=120)
    plt.close(figure)
    return True


def write_campaign_bench(
    path: str | Path,
    grid_size: int,
    workers: int,
    serial_seconds: float,
    pool_seconds: float,
) -> dict:
    """Write the ``BENCH_campaign.json`` throughput report; return it."""
    # cpu_count contextualises pool_speedup: a process pool cannot beat
    # serial on a single-core host, so the speedup is only meaningful
    # alongside the cores that were available when it was measured.
    report = {
        "benchmark": "campaign",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "grid_size": grid_size,
        "workers": workers,
        "serial_seconds": round(serial_seconds, 3),
        "pool_seconds": round(pool_seconds, 3),
        "serial_runs_per_second": round(grid_size / serial_seconds, 2)
        if serial_seconds > 0
        else None,
        "pool_runs_per_second": round(grid_size / pool_seconds, 2)
        if pool_seconds > 0
        else None,
        "pool_speedup": round(serial_seconds / pool_seconds, 2)
        if pool_seconds > 0
        else None,
    }
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report
