"""Figure 5 -- cumulative throughput of MeT vs tiramola (phase 1 of §6.4).

The first phase of the elasticity experiment: all YCSB tenants are active
and overload the initial 6-node cluster.  The paper reports the cumulative
number of operations completed over the first ~33 minutes: MeT completes
roughly 706 000 more operations than tiramola, a ~31% increase, despite
paying the initial reconfiguration cost between minutes 4 and 11.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.harness import StrategyRun
from repro.experiments.reporting import format_table
from repro.scenarios.paper import FIGURE5
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import ScenarioSpec


@dataclass
class Figure5Result:
    """Cumulative-operations series of both systems over phase 1."""

    met: StrategyRun
    tiramola: StrategyRun
    minutes: float

    @property
    def met_total_operations(self) -> float:
        """Operations MeT completed by the end of the phase."""
        return self.met.operations_until(self.minutes)

    @property
    def tiramola_total_operations(self) -> float:
        """Operations tiramola completed by the end of the phase."""
        return self.tiramola.operations_until(self.minutes)

    @property
    def improvement(self) -> float:
        """MeT over tiramola cumulative operations (paper: ~1.31x)."""
        if self.tiramola_total_operations <= 0:
            return float("inf")
        return self.met_total_operations / self.tiramola_total_operations

    @property
    def extra_operations(self) -> float:
        """Additional operations completed by MeT (paper: ~706 000)."""
        return self.met_total_operations - self.tiramola_total_operations


def run_figure5(specs: dict[str, ScenarioSpec] = FIGURE5) -> Figure5Result:
    """Run the elasticity experiment's first phase for MeT and tiramola."""
    runs = {
        controller: run_scenario(spec, controller=controller, keep_simulator=False).run
        for controller, spec in specs.items()
    }
    return Figure5Result(
        met=runs["met"], tiramola=runs["tiramola"], minutes=specs["met"].duration_minutes
    )


def report(result: Figure5Result) -> str:
    """Format the cumulative-operations series of Figure 5."""
    headers = ["minute", "MeT cumulative ops", "tiramola cumulative ops"]
    tiramola_by_minute = {round(p.minute): p for p in result.tiramola.series}
    rows = []
    for point in result.met.series:
        minute = round(point.minute)
        if minute > result.minutes:
            break
        other = tiramola_by_minute.get(minute)
        rows.append(
            [
                f"{minute:d}",
                f"{point.cumulative_ops:,.0f}",
                f"{other.cumulative_ops:,.0f}" if other else "-",
            ]
        )
    summary = [
        "",
        f"MeT completed {result.extra_operations:,.0f} more operations "
        f"({result.improvement:.2f}x, paper: ~706,000 / ~1.31x)",
    ]
    return format_table(headers, rows) + "\n" + "\n".join(summary)


def main() -> None:
    """Regenerate Figure 5 and print it."""
    print(report(run_figure5()))


if __name__ == "__main__":
    main()
