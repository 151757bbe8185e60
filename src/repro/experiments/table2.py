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

from repro.core.backends import SimulatorBackend
from repro.core.framework import MeT
from repro.core.parameters import MeTParameters
from repro.core.profiles import NODE_PROFILES
from repro.elasticity.strategies import PlacementPlan
from repro.experiments.harness import ExperimentHarness, apply_placement
from repro.experiments.reporting import format_table
from repro.hbase.config import TPCC_HOMOGENEOUS
from repro.simulation.cluster import ClusterSimulator
from repro.workloads.tenant import materialise_tenants
from repro.workloads.tpcc.driver import tpmc_from_ops_rate
from repro.workloads.tpcc.schema import TPCCConfig
from repro.workloads.tpcc.tenant import TPCCTenant


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


def _new_cluster(nodes: int, tpcc_config: TPCCConfig) -> ClusterSimulator:
    """The TPC-C cluster with one warehouse-aligned partition per node."""
    simulator = ClusterSimulator(default_config=TPCC_HOMOGENEOUS)
    node_names = [simulator.add_node() for _ in range(nodes)]
    expected = materialise_tenants(simulator, [TPCCTenant(config=tpcc_config)])
    assignment = {
        partition.partition_id: node for partition, node in zip(expected, node_names)
    }
    apply_placement(simulator, PlacementPlan(name="partition-per-node", assignment=assignment))
    return simulator


def _average_tpmc(simulator: ClusterSimulator, minutes: float) -> float:
    ops_per_second = simulator.total_ops / (minutes * 60.0)
    return tpmc_from_ops_rate(ops_per_second)


def run_table2(
    minutes: float = 45.0,
    nodes: int = 6,
    met_start_minute: float = 4.0,
    warehouses: int = 30,
) -> Table2Result:
    """Run the three PyTPCC settings and report average tpmC."""
    tpcc_config = TPCCConfig(warehouses=warehouses, warehouses_per_node=warehouses // nodes)

    # (i) Manual-Homogeneous baseline.
    simulator = _new_cluster(nodes, tpcc_config)
    harness = ExperimentHarness(simulator, name="manual-homogeneous")
    harness.run_for(minutes * 60.0)
    homogeneous_tpmc = _average_tpmc(simulator, minutes)

    # (ii) MeT started during the run.
    simulator = _new_cluster(nodes, tpcc_config)
    backend = SimulatorBackend(simulator)
    parameters = MeTParameters(max_nodes=nodes, min_nodes=nodes, allow_remove=False)
    met = MeT(backend, parameters, enabled=False)
    harness = ExperimentHarness(simulator, name="met")
    harness.add_controller(met)
    harness.run_for(met_start_minute * 60.0)
    met.start()
    harness.run_for((minutes - met_start_minute) * 60.0)
    met_tpmc = _average_tpmc(simulator, minutes)
    met_profiles = {
        name: node.profile_name for name, node in sorted(simulator.nodes.items())
    }
    met_assignment = simulator.assignment()

    # (iii) MeT's suggested configuration applied from the start.
    # Applied as a placement plan, not through reconfigure_node: this arm
    # models the configuration in place from t=0, with no restart.
    simulator = _new_cluster(nodes, tpcc_config)
    profiles = {
        name: profile
        for name, profile in met_profiles.items()
        if name in simulator.nodes and profile in NODE_PROFILES
    }
    plan = PlacementPlan(
        name="met-converged",
        node_configs={name: NODE_PROFILES[profile].config for name, profile in profiles.items()},
        node_profiles=profiles,
        assignment={
            partition_id: node
            for partition_id, node in met_assignment.items()
            if node in simulator.nodes and partition_id in simulator.regions
        },
    )
    apply_placement(simulator, plan)
    harness = ExperimentHarness(simulator, name="met-no-overhead")
    harness.run_for(minutes * 60.0)
    upper_tpmc = _average_tpmc(simulator, minutes)

    return Table2Result(
        manual_homogeneous_tpmc=homogeneous_tpmc,
        met_with_overhead_tpmc=met_tpmc,
        met_without_overhead_tpmc=upper_tpmc,
        minutes=minutes,
        met_profiles=met_profiles,
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
