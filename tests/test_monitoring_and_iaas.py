"""Tests for the monitoring layer: smoothing and the metric collectors."""

import pytest

from repro.core.backends import SimulatorBackend
from repro.monitoring.collector import MetricsCollector, PartitionSample
from repro.monitoring.smoothing import ExponentialSmoother
from repro.simulation.workload import WorkloadBinding


class TestExponentialSmoother:
    def test_empty_returns_default(self):
        assert ExponentialSmoother().value(default=0.3) == 0.3

    def test_recent_observations_weigh_more(self):
        smoother = ExponentialSmoother(alpha=0.5, window=6)
        for value in [0.1, 0.1, 0.1, 0.9]:
            smoother.observe(value)
        assert smoother.value() > 0.4

    def test_window_bounds_history(self):
        smoother = ExponentialSmoother(window=3)
        for value in range(10):
            smoother.observe(float(value))
        assert smoother.count == 3
        # Only 7, 8 and 9 remain: 7 -> 7.5 -> 8.25 at alpha 0.5.
        assert smoother.value() == 8.25

    def test_reset(self):
        smoother = ExponentialSmoother()
        smoother.observe(1.0)
        smoother.reset()
        assert smoother.count == 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ExponentialSmoother(alpha=0.0)
        with pytest.raises(ValueError):
            ExponentialSmoother(window=0)

    def test_constant_series_is_fixed_point(self):
        smoother = ExponentialSmoother()
        for _ in range(6):
            smoother.observe(0.42)
        assert smoother.value() == pytest.approx(0.42)


class RecordingSource:
    """A metrics source with two online nodes and one still booting that
    logs every call as ``(method, args)``; it also offers the all-nodes and
    locality reads the Monitor must not make."""

    def __init__(self):
        self.calls = []

    def _log(self, method, *args):
        self.calls.append((method, args))

    def node_names(self):
        self._log("node_names")
        return ["rs-1", "rs-2", "rs-boot"]

    def online_node_names(self):
        self._log("online_node_names")
        return ["rs-1", "rs-2"]

    def node_system_metrics(self, name):
        self._log("node_system_metrics", name)
        return {"cpu": 0.5, "io_wait": 0.25}

    def node_locality(self, name):
        self._log("node_locality", name)
        return 1.0

    def node_profile(self, name):
        self._log("node_profile", name)
        return "default"

    def partition_stats(self):
        self._log("partition_stats")
        return {"p1": PartitionSample("p1", "rs-1", 10.0, 5.0, 0.0)}


@pytest.fixture
def loaded_backend(simulator):
    node = next(iter(simulator.nodes))
    simulator.add_region("r1", "w", 1e8, node=node)
    simulator.attach_workload(
        WorkloadBinding(
            name="t",
            threads=20,
            op_mix={"read": 0.5, "update": 0.5},
            region_weights={"r1": 1.0},
        )
    )
    simulator.run(60.0)
    return SimulatorBackend(simulator)


class TestCollectors:
    def test_metrics_collector_snapshot(self, loaded_backend):
        collector = MetricsCollector(loaded_backend, decision_samples=2)
        collector.sample()
        assert not collector.decision_due()
        collector.sample()
        assert collector.decision_due()
        snapshot = collector.snapshot(30.0)
        assert len(snapshot.nodes) == 3
        assert "r1" in snapshot.partitions
        assert snapshot.partitions["r1"].total_requests > 0
        node = loaded_backend.simulator.regions["r1"].node
        assert snapshot.partitions_on(node)

    def test_reset_after_action_rebaselines_counters(self, loaded_backend):
        collector = MetricsCollector(loaded_backend, decision_samples=1)
        collector.sample()
        collector.snapshot(0.0)
        collector.reset_after_action()
        collector.sample()
        snapshot = collector.snapshot(30.0)
        # Counters are deltas relative to the post-action baseline, so they
        # are far smaller than the cumulative totals.
        cumulative = loaded_backend.partition_stats()["r1"].reads
        assert snapshot.partitions["r1"].reads < cumulative

    def test_monitor_polls_only_what_stage_a_and_stage_c_read(self):
        source = RecordingSource()
        collector = MetricsCollector(source, decision_samples=1)
        collector.sample()
        snapshot = collector.snapshot(30.0)
        assert {method for method, _ in source.calls} == {
            "online_node_names",
            "node_system_metrics",
            "node_profile",
            "partition_stats",
        }
        assert not any("rs-boot" in args for _, args in source.calls)
        assert list(snapshot.nodes) == ["rs-1", "rs-2"]
        assert snapshot.nodes["rs-1"].load == 0.5
        assert snapshot.partitions["p1"].total_requests == 15.0

    def test_collector_rejects_bad_parameters(self, loaded_backend):
        with pytest.raises(ValueError):
            MetricsCollector(loaded_backend, decision_samples=0)

