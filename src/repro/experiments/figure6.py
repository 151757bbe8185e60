"""Figure 6 -- the Section 6.4 elasticity experiment (MeT vs tiramola).

An HBase cluster of 6 RegionServer VMs (plus a master VM) runs on an
OpenStack IaaS, starting from 100% data locality and a manually
balanced homogeneous placement.  A set of YCSB workloads overloads the
initial cluster.  The experiment has two phases:

* **Phase 1 (first ~33 minutes)** -- all tenants active.  MeT reconfigures
  and grows the cluster, reaching the scenario's maximum achievable
  throughput (all YCSB clients saturated) with fewer machines than the
  tiramola baseline, which adds nodes but leaves placement to HBase's random
  balancer and therefore loses data locality.
* **Phase 2** -- tenants are switched off progressively (E and F, then B and
  D, then A, leaving only C).  MeT releases nodes as it detects
  under-utilisation; tiramola only releases a node when *every* node is
  under-utilised.

The two runs are :data:`repro.scenarios.paper.FIGURE6`; the shutdowns are
``TenantDeparture`` events built from its ``SHUTDOWN_SCHEDULE``.  Figure 5
(:mod:`repro.experiments.figure5`) is a second report over the same runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.harness import StrategyRun
from repro.experiments.reporting import format_table
from repro.scenarios.events import TenantDeparture
from repro.scenarios.paper import FIGURE6
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import ScenarioSpec


@dataclass
class Figure6Result:
    """Throughput and cluster-size series for both systems.

    Every measure below is read off the two runs; phase 1 is the first
    ``phase1_minutes`` of them (the whole of Figure 5).
    """

    met: StrategyRun
    tiramola: StrategyRun
    minutes: float = 60.0
    phase1_minutes: float = 33.0

    @property
    def met_peak_nodes(self) -> int:
        return self.met.node_bounds()[1]

    @property
    def tiramola_peak_nodes(self) -> int:
        return self.tiramola.node_bounds()[1]

    @property
    def met_final_nodes(self) -> int:
        return self.met.final_nodes

    @property
    def tiramola_final_nodes(self) -> int:
        return self.tiramola.final_nodes

    @property
    def met_machine_minutes(self) -> float:
        return self.met.machine_minutes

    @property
    def tiramola_machine_minutes(self) -> float:
        return self.tiramola.machine_minutes

    def _phase1_operations(self) -> tuple[float, float]:
        """Cumulative operations of MeT and of tiramola after phase 1."""
        return (
            self.met.operations_until(self.phase1_minutes),
            self.tiramola.operations_until(self.phase1_minutes),
        )

    @property
    def phase1_operations_ratio(self) -> float:
        """Cumulative operations after phase 1, MeT over tiramola (paper ~1.31)."""
        met_ops, tiramola_ops = self._phase1_operations()
        return met_ops / tiramola_ops if tiramola_ops > 0 else float("inf")

    @property
    def phase1_extra_operations(self) -> float:
        """Operations MeT completed beyond tiramola's in phase 1 (paper ~706,000)."""
        met_ops, tiramola_ops = self._phase1_operations()
        return met_ops - tiramola_ops


def run_figure6(specs: dict[str, ScenarioSpec] = FIGURE6) -> Figure6Result:
    """Run the elasticity experiment for MeT and tiramola.

    Phase 1 ends at the first tenant departure (or with the run).
    """
    runs = {
        controller: run_scenario(spec, controller=controller, keep_simulator=False).run
        for controller, spec in specs.items()
    }
    minutes = specs["met"].duration_minutes
    departures = [e.minute for e in specs["met"].events if isinstance(e, TenantDeparture)]
    return Figure6Result(
        met=runs["met"],
        tiramola=runs["tiramola"],
        minutes=minutes,
        phase1_minutes=min(departures + [minutes]),
    )


def report(result: Figure6Result) -> str:
    """Format the Figure 6 series (throughput and node count over time)."""
    headers = ["minute", "MeT ops/s", "MeT nodes", "tiramola ops/s", "tiramola nodes"]
    tiramola_by_minute = {round(p.minute): p for p in result.tiramola.series}
    rows = []
    for point in result.met.series:
        minute = round(point.minute)
        other = tiramola_by_minute.get(minute)
        rows.append(
            [
                f"{minute:d}",
                f"{point.throughput:,.0f}",
                f"{point.nodes:d}",
                f"{other.throughput:,.0f}" if other else "-",
                f"{other.nodes:d}" if other else "-",
            ]
        )
    summary = [
        "",
        f"phase-1 cumulative operations, MeT vs tiramola: {result.phase1_operations_ratio:.2f}x (paper: ~1.31x)",
        f"peak nodes: MeT {result.met_peak_nodes} vs tiramola {result.tiramola_peak_nodes} (paper: 9 vs 11)",
        f"final nodes: MeT {result.met_final_nodes} vs tiramola {result.tiramola_final_nodes}",
        f"machine-minutes: MeT {result.met_machine_minutes:,.0f} vs tiramola {result.tiramola_machine_minutes:,.0f}",
    ]
    return format_table(headers, rows) + "\n" + "\n".join(summary)


def main() -> None:
    """Regenerate Figure 6 and print it."""
    print(report(run_figure6()))


if __name__ == "__main__":
    main()
