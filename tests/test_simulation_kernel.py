"""Unit tests for the simulation kernel: clock, hardware, metrics, workload bindings."""

import pytest

from repro.simulation.clock import ClockError, SimulationClock
from repro.simulation.hardware import GB, LARGE_NODE, PAPER_NODE, HardwareSpec
from repro.simulation.metrics import MetricSeries, MetricsRegistry
from repro.simulation.workload import CLIENT_OVERHEAD_MS, OfferedLoad, WorkloadBinding


class TestSimulationClock:
    def test_starts_at_zero(self):
        assert SimulationClock().now == 0.0

    def test_advance_moves_forward(self):
        clock = SimulationClock()
        assert clock.advance(10.0) == [10.0]
        assert clock.now == 10.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ClockError):
            SimulationClock().advance(-1.0)

    def test_zero_advance_rejected(self):
        with pytest.raises(ClockError):
            SimulationClock().advance(0.0)

    @pytest.mark.parametrize("dt", [5.0, 0.7, 0.1, 3.3])
    def test_multi_step_advance_equals_single_steps(self, dt):
        """advance(dt, k) returns, value for value, the times k single
        advances reach -- the float sequence every tick timestamp follows,
        also at tick lengths binary floats cannot represent exactly."""
        batched = SimulationClock(now=12.5)
        stepped = SimulationClock(now=12.5)
        times = batched.advance(dt, 37)
        singles = [stepped.advance(dt)[0] for _ in range(37)]
        assert times == singles
        assert batched.now == stepped.now == times[-1]
        # A later batch continues the same sequence.
        assert batched.advance(dt, 3) == [stepped.advance(dt)[0] for _ in range(3)]


class TestHardwareSpec:
    def test_paper_node_is_valid(self):
        PAPER_NODE.validate()

    def test_large_node_is_valid(self):
        LARGE_NODE.validate()

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            HardwareSpec(cpu_millis_per_second=0).validate()

    def test_rejects_heap_larger_than_memory(self):
        with pytest.raises(ValueError):
            HardwareSpec(memory_bytes=2 * GB, heap_bytes=3 * GB).validate()

    def test_default_heap_fits_in_memory(self):
        spec = HardwareSpec()
        assert spec.heap_bytes <= spec.memory_bytes


class TestMetricSeries:
    def test_record_and_latest(self):
        series = MetricSeries("cpu")
        series.record(1.0, 0.5)
        series.record(2.0, 0.7)
        assert series.latest() == 0.7
        assert len(series) == 2

    def test_latest_default_when_empty(self):
        assert MetricSeries("cpu").latest(default=0.1) == 0.1

    def test_rejects_out_of_order_timestamps(self):
        series = MetricSeries("cpu")
        series.record(5.0, 1.0)
        with pytest.raises(ValueError):
            series.record(4.0, 1.0)

    def test_chained_windows_partition_without_double_counting(self):
        """Adjacent (start, end] windows share a boundary tick without
        double-counting it: their sample-weighted means recombine into the
        mean of the whole series."""
        series = MetricSeries("x")
        for t in range(10):
            series.record(float(t), float(t))
        first = series.mean_between(-1.0, 4.0)  # {0..4}
        second = series.mean_between(4.0, 9.0)  # {5..9}
        assert first == pytest.approx(2.0)
        assert second == pytest.approx(7.0)
        assert (5 * first + 5 * second) / 10 == pytest.approx(
            series.mean_between(-1.0, 9.0)
        )

    def test_mean_between_boundary_semantics(self):
        """mean_between is (start, end]: excludes start, includes end."""
        series = MetricSeries("x")
        for t in range(5):
            series.record(float(t), float(t))
        assert series.mean_between(1.0, 3.0) == pytest.approx(2.5)  # {2, 3}
        assert series.mean_between(3.0, 3.0) == 0.0  # empty window -> default
        assert series.mean_between(3.0, 2.0, default=-1.0) == -1.0


class TestMetricsRegistry:
    def test_series_created_on_demand(self):
        registry = MetricsRegistry()
        registry.record_many(0.0, [("node-1", "cpu", 0.4)])
        assert registry.latest("node-1", "cpu") == 0.4
        assert [key for key, _ in registry.items()] == [("node-1", "cpu")]

    def test_latest_default_for_unknown(self):
        assert MetricsRegistry().latest("nope", "cpu", default=0.9) == 0.9

    def test_drop_entity(self):
        registry = MetricsRegistry()
        registry.record_many(0.0, [("node-1", "cpu", 0.4), ("node-2", "cpu", 0.5)])
        registry.record_distributions(0.0, [("node-1", "latency_ms", object())])
        registry.drop_entity("node-1")
        assert [key for key, _ in registry.items()] == [("node-2", "cpu")]
        assert registry.distribution("node-1", "latency_ms") is None

    def test_single_and_repeated_appends_agree(self):
        """record_many is the one-timestamp case of record_many_repeated,
        and scalar samples are stored as floats."""
        single = MetricsRegistry()
        repeated = MetricsRegistry()
        for t in (1.0, 2.0, 3.0):
            single.record_many(t, [("a", "x", 2)])
        repeated.record_many_repeated([1.0, 2.0, 3.0], [("a", "x", 2)])
        for registry in (single, repeated):
            series = registry.series("a", "x")
            assert series.timestamps == [1.0, 2.0, 3.0]
            assert series.values == [2.0, 2.0, 2.0]
            assert all(type(value) is float for value in series.values)
        with pytest.raises(ValueError):
            repeated.record_many_repeated([2.5], [("a", "x", 1.0)])


class TestWorkloadBinding:
    def _binding(self, **overrides):
        kwargs = dict(
            name="w",
            threads=10,
            op_mix={"read": 0.5, "update": 0.5},
            region_weights={"r1": 0.6, "r2": 0.4},
        )
        kwargs.update(overrides)
        return WorkloadBinding(**kwargs)

    def test_valid_binding(self):
        binding = self._binding()
        assert binding.regions() == ["r1", "r2"]

    def test_rejects_bad_mix_sum(self):
        with pytest.raises(ValueError):
            self._binding(op_mix={"read": 0.5, "update": 0.4})

    def test_rejects_unknown_op(self):
        with pytest.raises(ValueError):
            self._binding(op_mix={"read": 0.5, "fly": 0.5})

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            self._binding(region_weights={"r1": 0.7, "r2": 0.7})

    def test_rejects_nonpositive_threads(self):
        with pytest.raises(ValueError):
            self._binding(threads=0)

    def test_max_throughput_decreases_with_latency(self):
        binding = self._binding()
        fast = binding.max_throughput(1.0)
        slow = binding.max_throughput(10.0)
        assert fast > slow > 0

    def test_max_throughput_respects_target_cap(self):
        binding = self._binding(target_ops_per_second=100.0)
        assert binding.max_throughput(0.1) == 100.0

    def test_inactive_binding_offers_nothing(self):
        binding = self._binding(active=False)
        assert binding.max_throughput(1.0) == 0.0

    def test_offered_loads_split_by_weights_and_mix(self):
        binding = self._binding()
        loads = {load.region_id: load for load in binding.offered_loads(1000.0)}
        assert loads["r1"].rate("read") == pytest.approx(300.0)
        assert loads["r2"].total == pytest.approx(400.0)

    def test_mean_latency_uses_default_for_missing_regions(self):
        binding = self._binding()
        latency = binding.mean_latency({"r1": {"read": 1.0, "update": 1.0}})
        # r2 is unavailable and contributes the blocked-request penalty.
        assert latency > 100.0

    def test_single_thread_bounded_by_client_overhead(self):
        binding = self._binding(threads=1)
        assert binding.max_throughput(0.0) <= 1000.0 / CLIENT_OVERHEAD_MS


class TestOfferedLoad:
    def test_total_and_rate(self):
        load = OfferedLoad(region_id="r", rates={"read": 5.0, "scan": 1.0})
        assert load.total == 6.0
        assert load.rate("read") == 5.0
        assert load.rate("update") == 0.0
