"""Tests for the monitoring substrate and the OpenStack-like IaaS provider."""

import pytest

from repro.core.backends import SimulatorBackend
from repro.iaas.flavors import FLAVORS, REGIONSERVER_FLAVOR
from repro.iaas.provider import IaaSError, OpenStackProvider, QuotaExceededError
from repro.iaas.vm import VMState
from repro.monitoring.collector import MetricsCollector
from repro.monitoring.smoothing import ExponentialSmoother, smooth_series
from repro.simulation.clock import SimulationClock
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
        assert smoother.raw() == [7.0, 8.0, 9.0]

    def test_reset(self):
        smoother = ExponentialSmoother()
        smoother.observe(1.0)
        smoother.reset()
        assert smoother.count == 0

    def test_is_warm(self):
        smoother = ExponentialSmoother(window=2)
        assert not smoother.is_warm
        smoother.observe(1.0)
        smoother.observe(1.0)
        assert smoother.is_warm

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ExponentialSmoother(alpha=0.0)
        with pytest.raises(ValueError):
            ExponentialSmoother(window=0)

    def test_smooth_series_helper(self):
        assert smooth_series([1.0, 1.0, 1.0]) == pytest.approx(1.0)
        assert smooth_series([]) == 0.0

    def test_constant_series_is_fixed_point(self):
        smoother = ExponentialSmoother()
        for _ in range(6):
            smoother.observe(0.42)
        assert smoother.value() == pytest.approx(0.42)


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
        assert snapshot.node_count == 3
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
        cumulative = loaded_backend.partition_stats()["r1"]["reads"]
        assert snapshot.partitions["r1"].reads < cumulative

    def test_collector_rejects_bad_parameters(self, loaded_backend):
        with pytest.raises(ValueError):
            MetricsCollector(loaded_backend, decision_samples=0)


class TestOpenStackProvider:
    def test_launch_becomes_active_after_boot(self):
        clock = SimulationClock()
        provider = OpenStackProvider(clock, boot_seconds=60.0)
        vm = provider.launch("rs-1", "m1.medium")
        assert vm.state is VMState.BUILDING
        clock.advance(61.0)
        assert provider.describe(vm.instance_id).state is VMState.ACTIVE
        assert provider.active()

    def test_unknown_flavor_rejected(self):
        provider = OpenStackProvider(SimulationClock())
        with pytest.raises(IaaSError):
            provider.launch("x", "no-such-flavor")

    def test_quota_enforced(self):
        provider = OpenStackProvider(SimulationClock(), quota=1)
        provider.launch("a", REGIONSERVER_FLAVOR)
        with pytest.raises(QuotaExceededError):
            provider.launch("b", REGIONSERVER_FLAVOR)

    def test_terminate_frees_quota(self):
        clock = SimulationClock()
        provider = OpenStackProvider(clock, quota=1)
        vm = provider.launch("a", REGIONSERVER_FLAVOR)
        provider.terminate(vm.instance_id)
        provider.launch("b", REGIONSERVER_FLAVOR)

    def test_machine_hours_accumulate(self):
        clock = SimulationClock()
        provider = OpenStackProvider(clock, boot_seconds=0.0)
        provider.launch("a", "m1.small")
        clock.advance(3600.0)
        assert provider.machine_hours() == pytest.approx(1.0, rel=0.05)

    def test_by_name_finds_live_instance(self):
        provider = OpenStackProvider(SimulationClock())
        vm = provider.launch("rs-9", "m1.small")
        assert provider.by_name("rs-9").instance_id == vm.instance_id
        assert provider.by_name("missing") is None

    def test_flavor_hardware_mapping(self):
        flavor = FLAVORS["m1.large"]
        hardware = flavor.hardware()
        assert hardware.cpu_millis_per_second == 8000.0
        assert hardware.heap_bytes <= hardware.memory_bytes

    def test_unknown_instance_raises(self):
        provider = OpenStackProvider(SimulationClock())
        with pytest.raises(IaaSError):
            provider.terminate("vm-404")
