"""Table 2 -- the Section 6.3 PyTPCC (versatility) experiment.

A 6-RegionServer cluster is loaded with a 30-warehouse TPC-C database
(~15 GB) and driven by 300 clients for 45 minutes under three settings:

* (i)   Manual-Homogeneous: the best hand-tuned homogeneous configuration
        (50% block cache, 15% memstore, 32 KB blocks);
* (ii)  MeT, started 4 minutes into the run on top of setting (i);
* (iii) the configuration MeT converged to, applied from the start (the
        upper bound without reconfiguration overhead).

Paper results (average tpmC): 25 380 / 31 020 / 33 720 -- the heterogeneous
setting improves the homogeneous one by ~33%, and the reconfiguration
overhead costs ~8%.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.reporting import format_table
from repro.scenarios.paper import TABLE2, converged
from repro.scenarios.runner import ScenarioRunResult, run_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.workloads.tpcc.driver import tpmc_from_ops_rate


@dataclass
class Table2Result:
    """Average throughput (tpmC) of the three settings."""

    manual_homogeneous_tpmc: float
    met_with_overhead_tpmc: float
    met_without_overhead_tpmc: float
    minutes: float
    met_profiles: dict[str, str]

    @property
    def heterogeneous_improvement(self) -> float:
        """Setting (iii) over setting (i) (paper: ~1.33x)."""
        if self.manual_homogeneous_tpmc <= 0:
            return float("inf")
        return self.met_without_overhead_tpmc / self.manual_homogeneous_tpmc

    @property
    def reconfiguration_overhead(self) -> float:
        """Relative cost of reconfiguring during the run (paper: ~8%)."""
        if self.met_without_overhead_tpmc <= 0:
            return 0.0
        return 1.0 - self.met_with_overhead_tpmc / self.met_without_overhead_tpmc


def _average_tpmc(result: ScenarioRunResult) -> float:
    return tpmc_from_ops_rate(result.run.total_operations / result.spec.duration_seconds)


def run_table2(spec: ScenarioSpec = TABLE2) -> Table2Result:
    """Run the three PyTPCC settings and report average tpmC."""
    homogeneous = run_scenario(spec, keep_simulator=False)
    met = run_scenario(spec, controller="met")
    upper = run_scenario(converged(spec, met), keep_simulator=False)
    return Table2Result(
        manual_homogeneous_tpmc=_average_tpmc(homogeneous),
        met_with_overhead_tpmc=_average_tpmc(met),
        met_without_overhead_tpmc=_average_tpmc(upper),
        minutes=spec.duration_minutes,
        met_profiles={
            name: node.profile_name for name, node in sorted(met.simulator.nodes.items())
        },
    )


def report(result: Table2Result) -> str:
    """Format the Table 2 rows."""
    headers = ["Setting", "Throughput (tpmC)", "Paper (tpmC)"]
    rows = [
        ["i) Manual-Homogeneous", f"{result.manual_homogeneous_tpmc:,.0f}", "25,380"],
        ["ii) MeT with reconfiguration overhead", f"{result.met_with_overhead_tpmc:,.0f}", "31,020"],
        ["iii) MeT w/o reconfiguration overhead", f"{result.met_without_overhead_tpmc:,.0f}", "33,720"],
    ]
    summary = [
        "",
        f"heterogeneous improvement over homogeneous: {result.heterogeneous_improvement:.2f}x (paper: ~1.33x)",
        f"reconfiguration overhead: {result.reconfiguration_overhead:.1%} (paper: ~8%)",
        f"MeT node profiles: {result.met_profiles}",
    ]
    return format_table(headers, rows) + "\n" + "\n".join(summary)


def main() -> None:
    """Regenerate Table 2 and print it."""
    print(report(run_table2()))


if __name__ == "__main__":
    main()
