"""Figure 5 -- cumulative throughput of MeT vs tiramola (phase 1 of §6.4).

The first phase of the elasticity experiment: all YCSB tenants are active
and overload the initial 6-node cluster.  The paper reports the cumulative
number of operations completed over the first ~33 minutes: MeT completes
roughly 706 000 more operations than tiramola, a ~31% increase, despite
paying the initial reconfiguration cost between minutes 4 and 11.

Figure 5 is not a run of its own: it reports the Figure 6 runs
(:func:`repro.experiments.figure6.run_figure6`) up to the first tenant
departure, where phase 1 ends.
"""

from __future__ import annotations

from repro.experiments.figure6 import Figure6Result, run_figure6
from repro.experiments.reporting import format_table


def report(result: Figure6Result) -> str:
    """Format the cumulative-operations series of Figure 5 (phase 1 only)."""
    headers = ["minute", "MeT cumulative ops", "tiramola cumulative ops"]
    tiramola_by_minute = {round(p.minute): p for p in result.tiramola.series}
    rows = []
    for point in result.met.series:
        # Cut on the unrounded minute: the sample just past the phase
        # (minute 33.08 of a 33-minute phase) rounds back into it.
        if point.minute > result.phase1_minutes:
            break
        minute = round(point.minute)
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
        f"MeT completed {result.phase1_extra_operations:,.0f} more operations "
        f"({result.phase1_operations_ratio:.2f}x, paper: ~706,000 / ~1.31x)",
    ]
    return format_table(headers, rows) + "\n" + "\n".join(summary)


def main() -> None:
    """Regenerate Figure 5 and print it."""
    print(report(run_figure6()))


if __name__ == "__main__":
    main()
