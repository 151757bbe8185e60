#!/usr/bin/env python3
"""Elastic scaling on an IaaS: MeT vs a tiramola-style autoscaler.

A shortened version of the Section 6.4 experiment: an initially overloaded
6-VM cluster, one run managed by MeT (workload-aware reconfiguration plus
node additions/removals) and one by a tiramola-style autoscaler (system
metrics only, homogeneous nodes, HBase's random balancer).  Workloads are
switched off halfway through to show scale-down behaviour.

Run with:  python examples/elastic_scaling.py
"""

from dataclasses import replace

from repro.experiments.figure6 import run_figure6
from repro.scenarios.paper import FIGURE6, SHUTDOWN_SCHEDULE


def main() -> None:
    result = run_figure6(
        {controller: replace(spec, duration_minutes=45.0) for controller, spec in FIGURE6.items()}
    )
    print("minute   MeT ops/s  MeT nodes   tiramola ops/s  tiramola nodes")
    tiramola = {round(p.minute): p for p in result.tiramola.series}
    for point in result.met.series:
        minute = round(point.minute)
        other = tiramola.get(minute)
        if other is None or minute % 3:
            continue
        print(
            f"{minute:6d}  {point.throughput:10,.0f}  {point.nodes:9d}"
            f"   {other.throughput:14,.0f}  {other.nodes:14d}"
        )
    print()
    print(f"shutdown schedule (phase 2): {SHUTDOWN_SCHEDULE}")
    print(f"cumulative operations after phase 1: MeT/tiramola = "
          f"{result.phase1_operations_ratio:.2f}x (paper: ~1.31x)")
    print(f"machines used: MeT peak {result.met_peak_nodes}, final {result.met_final_nodes}; "
          f"tiramola peak {result.tiramola_peak_nodes}, final {result.tiramola_final_nodes}")


if __name__ == "__main__":
    main()
