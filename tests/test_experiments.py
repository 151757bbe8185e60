"""Smoke tests for the experiment harness and reporting (short durations)."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.figure1 import run_figure1
from repro.experiments.figure1 import report as report_figure1
from repro.experiments.figure4 import run_figure4
from repro.experiments.figure4 import report as report_figure4
from repro.experiments.harness import ExperimentHarness, apply_placement
from repro.experiments.reporting import format_table, percentiles
from repro.elasticity.strategies import manual_heterogeneous
from repro.scenarios.paper import FIGURE1, FIGURE4
from repro.simulation.cluster import ClusterSimulator
from repro.workloads import CORE_WORKLOADS, materialise_tenants

SRC = Path(__file__).resolve().parent.parent / "src"


class TestReporting:
    def test_format_table_aligns_columns(self):
        text = format_table(["a", "bbbb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_percentiles(self):
        values = list(range(1, 101))
        p = percentiles([float(v) for v in values])
        assert p[50] == pytest.approx(50.5)
        assert p[5] < p[25] < p[75] < p[90]
        assert percentiles([])[50] == 0.0


class TestHarness:
    def test_harness_records_series_and_totals(self):
        simulator = ClusterSimulator()
        nodes = [simulator.add_node() for _ in range(3)]
        expected = materialise_tenants(simulator, CORE_WORKLOADS.values())
        plan = manual_heterogeneous(expected, nodes)
        apply_placement(simulator, plan)
        # Four access-pattern groups on three nodes: every region still
        # gets a node (an unplaced one is served at the unavailable latency).
        assert all(region.node in nodes for region in simulator.regions.values())
        harness = ExperimentHarness(simulator, name="test", sample_every_seconds=30.0)
        run = harness.run_for(120.0)
        assert run.total_operations > 0
        assert run.final_nodes == 3
        assert len(run.series) >= 4
        assert run.mean_throughput > 0
        assert run.operations_until(2.0) <= run.total_operations
        assert run.machine_minutes == pytest.approx(3 * 2.0, rel=0.1)

    def test_apply_placement_sets_configs_and_locality(self):
        simulator = ClusterSimulator()
        nodes = [simulator.add_node() for _ in range(5)]
        expected = materialise_tenants(simulator, CORE_WORKLOADS.values())
        plan = manual_heterogeneous(expected, nodes)
        apply_placement(simulator, plan)
        assert all(region.locality == 1.0 for region in simulator.regions.values())
        assert {node.profile_name for node in simulator.nodes.values()} >= {"read", "write"}


class TestExperimentSmoke:
    def test_figure1_short_run_orders_strategies(self):
        specs = {name: replace(spec, duration_minutes=2.0) for name, spec in FIGURE1.items()}
        result = run_figure1(specs, runs=1)
        heterogeneous = result.outcomes["manual-heterogeneous"].mean_total
        random_mean = result.outcomes["random-homogeneous"].mean_total
        assert heterogeneous > 0 and random_mean > 0
        assert heterogeneous >= random_mean * 0.9
        assert "manual-heterogeneous" in report_figure1(result)

    def test_figure4_short_run_reports_series(self):
        specs = {name: replace(spec, duration_minutes=6.0) for name, spec in FIGURE4.items()}
        specs["met"] = replace(specs["met"], controller_start_minute=1.0)
        result = run_figure4(specs)
        assert result.met.series
        assert result.reconfiguration_floor >= 0
        assert "reconfiguration floor" in report_figure4(result)

    def test_entry_point_runs_without_runtime_warnings(self):
        """``python -m repro.experiments.table2`` imports its module once.

        The package imports no experiment module, so runpy finds none in
        ``sys.modules`` before executing it; an eager import makes it warn
        (an error here) and run the module twice.
        """
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        completed = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.experiments.table2"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stderr == ""
        assert "MeT node profiles" in completed.stdout
