"""Figure 1 -- the Section 3 motivation experiment.

Six YCSB workloads run simultaneously against a 5-RegionServer cluster under
three strategies: Random-Homogeneous (the HBase default), Manual-Homogeneous
(hand-balanced placement, identical configurations) and Manual-Heterogeneous
(workload-aware placement plus per-group configurations).  The paper reports
per-workload and total throughput as CDF bars over 5 runs; the headline
numbers are a ~35% total improvement of Manual-Heterogeneous over
Manual-Homogeneous, more than 2x over Random-Homogeneous (on average), and a
dramatic improvement of the scan workload E.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.elasticity.strategies import (
    manual_heterogeneous,
    manual_homogeneous,
    random_homogeneous,
)
from repro.experiments.harness import ExperimentHarness, apply_placement
from repro.experiments.reporting import format_table, percentiles
from repro.simulation.cluster import ClusterSimulator
from repro.workloads.tenant import materialise_tenants
from repro.workloads.ycsb.workloads import CORE_WORKLOADS

#: The three strategies of Section 3.3, in presentation order.
STRATEGIES = ("random-homogeneous", "manual-homogeneous", "manual-heterogeneous")


@dataclass
class StrategyOutcome:
    """Per-run throughput observations of one strategy."""

    name: str
    totals: list[float] = field(default_factory=list)
    per_workload: list[dict[str, float]] = field(default_factory=list)

    @property
    def mean_total(self) -> float:
        """Mean total throughput over the runs."""
        if not self.totals:
            return 0.0
        return sum(self.totals) / len(self.totals)

    def workload_mean(self, workload: str) -> float:
        """Mean throughput of one workload over the runs."""
        values = [run.get(workload, 0.0) for run in self.per_workload]
        if not values:
            return 0.0
        return sum(values) / len(values)

    def total_percentiles(self) -> dict[int, float]:
        """The CDF bar values of the figure for the total throughput."""
        return percentiles(self.totals)


@dataclass
class Figure1Result:
    """Aggregated outcome of the Figure 1 experiment."""

    outcomes: dict[str, StrategyOutcome] = field(default_factory=dict)
    minutes: float = 0.0
    runs: int = 0

    @property
    def heterogeneous_vs_homogeneous(self) -> float:
        """Total throughput ratio Manual-Heterogeneous / Manual-Homogeneous."""
        hom = self.outcomes["manual-homogeneous"].mean_total
        het = self.outcomes["manual-heterogeneous"].mean_total
        return het / hom if hom > 0 else float("inf")

    @property
    def heterogeneous_vs_random(self) -> float:
        """Total throughput ratio Manual-Heterogeneous / Random-Homogeneous."""
        rand = self.outcomes["random-homogeneous"].mean_total
        het = self.outcomes["manual-heterogeneous"].mean_total
        return het / rand if rand > 0 else float("inf")

    @property
    def scan_improvement(self) -> float:
        """Workload E throughput ratio, heterogeneous over homogeneous."""
        hom = self.outcomes["manual-homogeneous"].workload_mean("workload-E")
        het = self.outcomes["manual-heterogeneous"].workload_mean("workload-E")
        return het / hom if hom > 0 else float("inf")


def _run_once(strategy: str, seed: int, minutes: float, nodes: int) -> tuple[float, dict[str, float]]:
    """Run one strategy once; returns (total throughput, per-workload)."""
    simulator = ClusterSimulator()
    node_names = [simulator.add_node() for _ in range(nodes)]
    expected = materialise_tenants(simulator, CORE_WORKLOADS.values())
    if strategy == "random-homogeneous":
        plan = random_homogeneous(expected, node_names, seed=seed)
    elif strategy == "manual-homogeneous":
        plan = manual_homogeneous(expected, node_names)
    elif strategy == "manual-heterogeneous":
        plan = manual_heterogeneous(expected, node_names)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    apply_placement(simulator, plan)
    harness = ExperimentHarness(simulator, name=f"{strategy}-{seed}")
    run = harness.run_for(minutes * 60.0)
    steady = run.throughput_between(minutes * 0.5, minutes)
    per_workload = dict(run.per_workload_throughput)
    return steady, per_workload


def run_figure1(runs: int = 5, minutes: float = 10.0, nodes: int = 5) -> Figure1Result:
    """Run the full Figure 1 experiment.

    ``minutes`` is the steady-state window per run (the paper runs 30
    minutes; the default is shorter because the analytical simulator reaches
    steady state quickly).
    """
    result = Figure1Result(minutes=minutes, runs=runs)
    for strategy in STRATEGIES:
        outcome = StrategyOutcome(name=strategy)
        # Only the random strategy is placement-randomised; the manual
        # strategies are deterministic but are still run ``runs`` times for
        # symmetric reporting.
        for seed in range(runs):
            total, per_workload = _run_once(strategy, seed, minutes, nodes)
            outcome.totals.append(total)
            outcome.per_workload.append(per_workload)
        result.outcomes[strategy] = outcome
    return result


def report(result: Figure1Result) -> str:
    """Format the Figure 1 rows (per-workload and total mean throughput)."""
    workloads = [f"workload-{w}" for w in "ABCDEF"]
    headers = ["strategy"] + [w.split("-")[1] for w in workloads] + ["total", "p50-total"]
    rows = []
    for strategy in STRATEGIES:
        outcome = result.outcomes[strategy]
        row = [strategy]
        row += [f"{outcome.workload_mean(w):,.0f}" for w in workloads]
        row.append(f"{outcome.mean_total:,.0f}")
        row.append(f"{outcome.total_percentiles()[50]:,.0f}")
        rows.append(row)
    summary = [
        "",
        f"manual-heterogeneous vs manual-homogeneous: {result.heterogeneous_vs_homogeneous:.2f}x "
        "(paper: ~1.35x)",
        f"manual-heterogeneous vs random-homogeneous: {result.heterogeneous_vs_random:.2f}x "
        "(paper: >2x)",
        f"workload E (scans) heterogeneous vs homogeneous: {result.scan_improvement:.2f}x "
        "(paper: ~13x, 100 -> 1350 scans/s)",
    ]
    return format_table(headers, rows) + "\n" + "\n".join(summary)


def main() -> None:
    """Regenerate Figure 1 and print it."""
    print(report(run_figure1()))


if __name__ == "__main__":
    main()
