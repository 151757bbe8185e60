#!/usr/bin/env python3
"""Quickstart: run MeT against a simulated multi-tenant HBase cluster.

Builds the paper's six-tenant YCSB scenario on a 5-node simulated cluster
that starts with HBase's default random placement and homogeneous node
configuration, then lets MeT observe, classify and heterogeneously
reconfigure it.  Prints throughput before, during and after reconfiguration.

Run with:  python examples/quickstart.py
"""

from repro.core import MeT, MeTParameters, SimulatorBackend
from repro.elasticity import AutoscalerAction, random_homogeneous
from repro.experiments.harness import apply_placement
from repro.simulation import ClusterSimulator
from repro.workloads import CORE_WORKLOADS, materialise_tenants


def main() -> None:
    # 1. A 5-RegionServer simulated cluster with the paper's node hardware.
    simulator = ClusterSimulator()
    nodes = [simulator.add_node() for _ in range(5)]

    # 2. The six YCSB workloads of the paper, four partitions each (one for
    #    the insert-heavy workload D), driven by closed-loop client threads.
    expected = materialise_tenants(simulator, CORE_WORKLOADS.values())

    # 3. Start from HBase's out-of-the-box behaviour: random placement and
    #    one homogeneous configuration for every node.
    plan = random_homogeneous(expected, nodes, seed=7)
    apply_placement(simulator, plan)

    # 4. Attach MeT.  The cluster size is fixed here (no IaaS), so MeT only
    #    reconfigures: classify partitions, group nodes, move regions and
    #    restart RegionServers with per-group profiles.
    backend = SimulatorBackend(simulator)
    met = MeT(backend, MeTParameters(min_nodes=5, max_nodes=5, allow_remove=False))

    print("minute  throughput(ops/s)  node profiles")
    for minute in range(1, 21):
        for _ in range(12):  # 5-second simulation ticks
            simulator.tick()
            met.step(simulator.clock.now)
        profiles = sorted(node.profile_name for node in simulator.nodes.values())
        print(f"{minute:6d}  {simulator.cluster_throughput():17,.0f}  {profiles}")

    print()
    plans = [e for e in met.log.events if e.action == AutoscalerAction.PLAN]
    healthy = met.log.count(AutoscalerAction.HEALTHY)
    print(
        "MeT decisions:", len(plans) + healthy,
        "plans applied:", met.actuator.report.plans_applied,
    )
    for event in plans:
        print(f"  t={event.timestamp/60:5.1f} min  {event.detail}")
    print("per-workload throughput (ops/s):")
    for name in sorted(simulator.bindings):
        print(f"  {name:12s} {simulator.binding_throughput(name):10,.0f}")


if __name__ == "__main__":
    main()
