"""Figure 4 -- the Section 6.2 convergence experiment.

A 5-RegionServer cluster starts in the Random-Homogeneous configuration;
after a 2-minute ramp-up MeT is started and reconfigures the cluster on the
fly (no node additions -- the cluster size is fixed in this experiment).
The paper's observations: a reconfiguration window between roughly minute 2
and minute 8 with a throughput floor around 7.5 kops/s, recovery to
~20 kops/s by minute 5, and post-reconfiguration throughput matching the
Manual-Heterogeneous strategy; the cumulative average beats
Manual-Homogeneous within 15 minutes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.framework import MeT
from repro.core.parameters import MeTParameters
from repro.elasticity.autoscaler import AutoscalerAction
from repro.elasticity.strategies import (
    manual_heterogeneous,
    manual_homogeneous,
    random_homogeneous,
)
from repro.core.backends import SimulatorBackend
from repro.experiments.harness import ExperimentHarness, StrategyRun, apply_placement
from repro.experiments.reporting import format_table
from repro.simulation.cluster import ClusterSimulator
from repro.workloads.tenant import materialise_tenants
from repro.workloads.ycsb.workloads import CORE_WORKLOADS


@dataclass
class Figure4Result:
    """The three throughput-over-time series of Figure 4."""

    met: StrategyRun
    manual_homogeneous: StrategyRun
    manual_heterogeneous: StrategyRun
    met_events: list = field(default_factory=list)
    minutes: float = 30.0
    met_start_minute: float = 2.0

    @property
    def reconfiguration_floor(self) -> float:
        """Lowest throughput observed while MeT reconfigures."""
        window = [
            point.throughput
            for point in self.met.series
            if self.met_start_minute <= point.minute <= self.met_start_minute + 8
        ]
        return min(window) if window else 0.0

    @property
    def met_final_throughput(self) -> float:
        """MeT throughput over the last third of the run."""
        return self.met.throughput_between(self.minutes * 2 / 3, self.minutes)

    @property
    def heterogeneous_final_throughput(self) -> float:
        """Manual-Heterogeneous throughput over the last third of the run."""
        return self.manual_heterogeneous.throughput_between(
            self.minutes * 2 / 3, self.minutes
        )

    @property
    def homogeneous_final_throughput(self) -> float:
        """Manual-Homogeneous throughput over the last third of the run."""
        return self.manual_homogeneous.throughput_between(
            self.minutes * 2 / 3, self.minutes
        )

    def met_matches_heterogeneous(self, tolerance: float = 0.15) -> bool:
        """Whether MeT converges to Manual-Heterogeneous performance."""
        target = self.heterogeneous_final_throughput
        if target <= 0:
            return False
        return abs(self.met_final_throughput - target) / target <= tolerance


def _manual_run(strategy_fn, name: str, minutes: float, nodes: int, seed: int) -> StrategyRun:
    simulator = ClusterSimulator()
    node_names = [simulator.add_node() for _ in range(nodes)]
    expected = materialise_tenants(simulator, CORE_WORKLOADS.values())
    if strategy_fn is random_homogeneous:
        plan = strategy_fn(expected, node_names, seed=seed)
    else:
        plan = strategy_fn(expected, node_names)
    apply_placement(simulator, plan)
    harness = ExperimentHarness(simulator, name=name)
    return harness.run_for(minutes * 60.0)


def run_figure4(
    minutes: float = 30.0,
    nodes: int = 5,
    met_start_minute: float = 2.0,
    seed: int = 1,
) -> Figure4Result:
    """Run the convergence experiment and the two manual baselines."""
    # --- MeT run: start from Random-Homogeneous, add MeT after ramp-up.
    simulator = ClusterSimulator()
    node_names = [simulator.add_node() for _ in range(nodes)]
    expected = materialise_tenants(simulator, CORE_WORKLOADS.values())
    apply_placement(simulator, random_homogeneous(expected, node_names, seed=seed))
    backend = SimulatorBackend(simulator)
    parameters = MeTParameters(max_nodes=nodes, min_nodes=nodes, allow_remove=False)
    met = MeT(backend, parameters)
    harness = ExperimentHarness(simulator, name="met")
    harness.run_for(met_start_minute * 60.0)
    harness.add_controller(met)
    met_run = harness.run_for((minutes - met_start_minute) * 60.0)

    hom_run = _manual_run(manual_homogeneous, "manual-homogeneous", minutes, nodes, seed)
    het_run = _manual_run(manual_heterogeneous, "manual-heterogeneous", minutes, nodes, seed)
    return Figure4Result(
        met=met_run,
        manual_homogeneous=hom_run,
        manual_heterogeneous=het_run,
        met_events=[
            event
            for action in (AutoscalerAction.PLAN, AutoscalerAction.PLAN_COMPLETE)
            for event in met.log.events
            if event.action == action
        ],
        minutes=minutes,
        met_start_minute=met_start_minute,
    )


def report(result: Figure4Result) -> str:
    """Format the Figure 4 series plus the convergence summary."""
    headers = ["minute", "MeT", "Manual-Homogeneous", "Manual-Heterogeneous"]
    rows = []
    by_minute_hom = {round(p.minute): p.throughput for p in result.manual_homogeneous.series}
    by_minute_het = {round(p.minute): p.throughput for p in result.manual_heterogeneous.series}
    for point in result.met.series:
        minute = round(point.minute)
        rows.append(
            [
                f"{minute:d}",
                f"{point.throughput:,.0f}",
                f"{by_minute_hom.get(minute, 0.0):,.0f}",
                f"{by_minute_het.get(minute, 0.0):,.0f}",
            ]
        )
    summary = [
        "",
        f"reconfiguration floor: {result.reconfiguration_floor:,.0f} ops/s (paper: ~7,500)",
        f"MeT final throughput: {result.met_final_throughput:,.0f} ops/s",
        f"Manual-Heterogeneous final: {result.heterogeneous_final_throughput:,.0f} ops/s",
        f"MeT converges to heterogeneous performance: {result.met_matches_heterogeneous()}",
    ]
    return format_table(headers, rows) + "\n" + "\n".join(summary)


def main() -> None:
    """Regenerate Figure 4 and print it."""
    print(report(run_figure4()))


if __name__ == "__main__":
    main()
