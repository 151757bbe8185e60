"""Figure 6 -- the Section 6.4 elasticity experiment (MeT vs tiramola).

An HBase cluster of 6 RegionServer VMs (plus a master VM) runs on the
OpenStack-like IaaS, starting from 100% data locality and a manually
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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.backends import SimulatorBackend
from repro.core.framework import MeT
from repro.core.parameters import MeTParameters
from repro.elasticity.autoscaler import Autoscaler
from repro.elasticity.daemon import HBaseBalancerDaemon
from repro.elasticity.strategies import manual_homogeneous
from repro.elasticity.tiramola import Tiramola, TiramolaPolicy
from repro.experiments.harness import ExperimentHarness, StrategyRun, apply_placement
from repro.experiments.reporting import format_table
from repro.iaas.provider import OpenStackProvider
from repro.simulation.cluster import ClusterSimulator
from repro.simulation.hardware import ELASTICITY_VM
from repro.workloads.tenant import materialise_tenants
from repro.workloads.ycsb.workloads import CORE_WORKLOADS, YCSBWorkload

#: Per-workload throughput caps for this scenario: together they overload the
#: initial 6-node cluster and define the maximum achievable throughput once
#: every client is saturated (the paper's ~22 kops/s plateau).
SCENARIO_TARGETS: dict[str, float] = {
    "A": 5000.0,
    "B": 4500.0,
    "C": 4500.0,
    "D": 1500.0,
    "E": 600.0,
    "F": 4500.0,
}

#: Phase-2 shutdown schedule: minute -> workloads switched off.
SHUTDOWN_SCHEDULE: dict[float, tuple[str, ...]] = {
    33.0: ("E", "F"),
    43.0: ("B", "D"),
    53.0: ("A",),
}


@dataclass
class Figure6Result:
    """Throughput and cluster-size series for both systems."""

    met: StrategyRun
    tiramola: StrategyRun
    met_machine_minutes: float = 0.0
    tiramola_machine_minutes: float = 0.0
    met_peak_nodes: int = 0
    tiramola_peak_nodes: int = 0
    met_final_nodes: int = 0
    tiramola_final_nodes: int = 0
    minutes: float = 60.0
    phase1_minutes: float = 33.0
    met_events: list = field(default_factory=list)
    tiramola_events: list = field(default_factory=list)

    @property
    def phase1_operations_ratio(self) -> float:
        """Cumulative operations after phase 1, MeT over tiramola (paper ~1.31)."""
        tiramola_ops = self.tiramola.operations_until(self.phase1_minutes)
        met_ops = self.met.operations_until(self.phase1_minutes)
        return met_ops / tiramola_ops if tiramola_ops > 0 else float("inf")

    @property
    def met_uses_fewer_machines(self) -> bool:
        """Whether MeT reached its peak with fewer machines than tiramola."""
        return self.met_peak_nodes <= self.tiramola_peak_nodes


def scenario_workloads() -> dict[str, YCSBWorkload]:
    """The paper workloads with the elasticity-scenario throughput caps."""
    return {
        name: workload.with_target(
            SCENARIO_TARGETS.get(name, workload.target_ops_per_second)
        )
        for name, workload in CORE_WORKLOADS.items()
    }


def _build_cluster(nodes: int) -> tuple[ClusterSimulator, OpenStackProvider]:
    simulator = ClusterSimulator(hardware=ELASTICITY_VM)
    provider = OpenStackProvider(simulator.clock, boot_seconds=simulator.boot_seconds)
    node_names = [simulator.add_node() for _ in range(nodes)]
    expected = materialise_tenants(simulator, scenario_workloads().values())
    plan = manual_homogeneous(expected, node_names)
    apply_placement(simulator, plan)
    return simulator, provider


def _run_system(
    system: str,
    minutes: float,
    nodes: int,
    seed: int,
    max_nodes: int,
    shutdown_schedule: dict[float, tuple[str, ...]] | None,
) -> tuple[StrategyRun, ExperimentHarness, Autoscaler]:
    simulator, provider = _build_cluster(nodes)
    backend = SimulatorBackend(simulator, provider=provider)
    if system == "met":
        parameters = MeTParameters(min_nodes=nodes, max_nodes=max_nodes, allow_remove=True)
        controller = MeT(backend, parameters)
    elif system == "tiramola":
        policy = TiramolaPolicy(min_nodes=nodes, max_nodes=max_nodes)
        controller = Tiramola(backend, policy)
    else:
        raise ValueError(f"unknown system {system!r}")
    harness = ExperimentHarness(simulator, name=system)
    harness.add_controller(controller)
    if system == "tiramola":
        harness.add_controller(HBaseBalancerDaemon(backend, seed=seed))

    schedule = dict(sorted((shutdown_schedule or {}).items()))
    elapsed = 0.0
    for minute, workloads in schedule.items():
        if minute > minutes:
            break
        harness.run_for((minute - elapsed) * 60.0)
        for workload in workloads:
            simulator.set_workload_active(f"workload-{workload}", False)
        elapsed = minute
    run = harness.run_for((minutes - elapsed) * 60.0)
    return run, harness, controller


def run_figure6(
    minutes: float = 60.0,
    initial_nodes: int = 6,
    max_nodes: int = 11,
    seed: int = 0,
    phase1_minutes: float = 33.0,
    with_phase2: bool = True,
) -> Figure6Result:
    """Run the elasticity experiment for MeT and tiramola."""
    schedule = SHUTDOWN_SCHEDULE if with_phase2 else {}
    met_run, _, met_controller = _run_system(
        "met", minutes, initial_nodes, seed, max_nodes, schedule
    )
    tiramola_run, _, tiramola_controller = _run_system(
        "tiramola", minutes, initial_nodes, seed, max_nodes, schedule
    )
    return Figure6Result(
        met=met_run,
        tiramola=tiramola_run,
        met_peak_nodes=max((p.nodes for p in met_run.series), default=initial_nodes),
        tiramola_peak_nodes=max((p.nodes for p in tiramola_run.series), default=initial_nodes),
        met_final_nodes=met_run.final_nodes,
        tiramola_final_nodes=tiramola_run.final_nodes,
        met_machine_minutes=met_run.machine_minutes,
        tiramola_machine_minutes=tiramola_run.machine_minutes,
        minutes=minutes,
        phase1_minutes=min(phase1_minutes, minutes),
        met_events=list(met_controller.log.events),
        tiramola_events=list(tiramola_controller.log.events),
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
