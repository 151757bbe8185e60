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

from dataclasses import dataclass

from repro.experiments.harness import StrategyRun
from repro.experiments.reporting import format_table
from repro.scenarios.paper import FIGURE4
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import ScenarioSpec


@dataclass
class Figure4Result:
    """The three throughput-over-time series of Figure 4."""

    met: StrategyRun
    manual_homogeneous: StrategyRun
    manual_heterogeneous: StrategyRun
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


def run_figure4(specs: dict[str, ScenarioSpec] = FIGURE4) -> Figure4Result:
    """Run the convergence experiment (under MeT) and the two manual
    baselines (under no controller)."""
    runs = {
        name: run_scenario(
            spec, controller="met" if name == "met" else "none", keep_simulator=False
        ).run
        for name, spec in specs.items()
    }
    return Figure4Result(
        met=runs["met"],
        manual_homogeneous=runs["manual-homogeneous"],
        manual_heterogeneous=runs["manual-heterogeneous"],
        minutes=specs["met"].duration_minutes,
        met_start_minute=specs["met"].controller_start_minute,
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
