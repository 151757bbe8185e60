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
from repro.experiments.figure5 import report as report_figure5
from repro.experiments.figure6 import Figure6Result
from repro.experiments.harness import ExperimentHarness, StrategyRun, TimeSeriesPoint, apply_placement
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


class TestFigure5Report:
    @staticmethod
    def _run(name: str, ops_per_minute: float) -> StrategyRun:
        """Samples at 0.08, 1.08, ..., 35.08 minutes, as the harness takes them."""
        series = [
            TimeSeriesPoint(
                minute=i + 0.08, throughput=0.0, cumulative_ops=ops_per_minute * (i + 1), nodes=6
            )
            for i in range(36)
        ]
        return StrategyRun(name=name, series=series)

    def test_table_ends_at_the_last_sample_before_the_first_departure(self):
        result = Figure6Result(
            met=self._run("met", 1000.0), tiramola=self._run("tiramola", 800.0), phase1_minutes=33.0
        )
        text = report_figure5(result)
        table, summary = text.split("\n\n")
        # The 33.08-minute sample rounds to 33 but lies past the phase.
        assert [row.split()[0] for row in table.splitlines()[2:]] == [str(m) for m in range(33)]
        # 32.08 minutes: 33,000 MeT ops vs 26,400 tiramola ops.
        assert summary.startswith("MeT completed 6,600 more operations (1.25x,")

    def test_a_minute_tiramola_did_not_sample_reads_as_a_dash(self):
        tiramola = self._run("tiramola", 800.0)
        del tiramola.series[10]
        result = Figure6Result(met=self._run("met", 1000.0), tiramola=tiramola, phase1_minutes=33.0)
        rows = {row.split()[0]: row.split()[1:] for row in report_figure5(result).splitlines()[2:33]}
        assert rows["10"] == ["11,000", "-"]
        assert rows["11"] == ["12,000", "9,600"]


class TestFigure6Result:
    def test_node_and_machine_minute_measures_are_read_off_the_runs(self):
        met = StrategyRun(
            name="met",
            series=[TimeSeriesPoint(minute=m, throughput=0.0, cumulative_ops=0.0, nodes=n)
                    for m, n in [(0.08, 6), (1.08, 9), (2.08, 4)]],
            final_nodes=4,
            machine_minutes=19.0,
        )
        tiramola = StrategyRun(
            name="tiramola",
            series=[TimeSeriesPoint(minute=0.08, throughput=0.0, cumulative_ops=0.0, nodes=6)],
            final_nodes=7,
            machine_minutes=25.5,
        )
        result = Figure6Result(met=met, tiramola=tiramola)
        assert (result.met_peak_nodes, result.met_final_nodes, result.met_machine_minutes) == (9, 4, 19.0)
        assert (result.tiramola_peak_nodes, result.tiramola_final_nodes) == (6, 7)
        assert result.tiramola_machine_minutes == 25.5


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
