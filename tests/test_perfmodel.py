"""Tests for the cost model the simulator runs: the trade-offs MeT exploits.

Per-op cost properties read the evaluator's per-unit-rate ``ROW_*``
coefficients; hit-ratio and node-level properties evaluate a node through
:meth:`NodeEvaluator.evaluate_rates`.
"""

import pytest

from repro.core.profiles import NODE_PROFILES
from repro.hbase.config import DEFAULT_HOMOGENEOUS, RegionServerConfig
from repro.simulation.hardware import HardwareSpec
from repro.simulation.perfmodel import (
    ROW_READ_MISS_BYTES,
    ROW_READ_MISS_IOPS,
    ROW_READ_MISS_NET,
    ROW_SCAN_CPU,
    ROW_SCAN_MISS_IOPS,
    ROW_WRITE_BYTES,
    ROW_WRITE_CPU,
    NodeEvaluator,
    write_amplification,
)
from perfmodel_oracle import RegionLoadProfile, ServiceDemand, evaluate


def region(**overrides) -> RegionLoadProfile:
    kwargs = dict(region_id="r", size_bytes=250e6, read_rate=1000.0)
    kwargs.update(overrides)
    return RegionLoadProfile(**kwargs)


def evaluate_node(config, regions, background=0.0, hardware=HardwareSpec()):
    """One node hosting ``regions``, evaluated at the rates they carry."""
    return evaluate(NodeEvaluator(hardware, config, regions), regions, background)


def hit_ratio(config, regions) -> float:
    return evaluate_node(config, regions).hit_ratio


def row(config, **overrides) -> list[float]:
    """The per-unit-rate coefficient row of one region on a ``config`` node."""
    return NodeEvaluator(HardwareSpec(), config, [region(**overrides)]).rows[0]


class TestServiceDemand:
    def test_add_accumulates(self):
        a = ServiceDemand(cpu_millis=1.0, disk_iops=2.0)
        a.add(ServiceDemand(cpu_millis=3.0, disk_bytes=5.0))
        assert a.cpu_millis == 4.0
        assert a.disk_iops == 2.0
        assert a.disk_bytes == 5.0


class TestCacheModel:
    def test_bigger_cache_gives_higher_hit_ratio(self):
        read_profile = NODE_PROFILES["read"].config
        write_profile = NODE_PROFILES["write"].config
        regions = [region(size_bytes=2e9)]
        assert hit_ratio(read_profile, regions) > hit_ratio(write_profile, regions)

    def test_hit_ratio_is_one_without_read_traffic(self):
        regions = [region(read_rate=0.0, update_rate=100.0)]
        assert hit_ratio(DEFAULT_HOMOGENEOUS, regions) == 1.0

    def test_hit_ratio_decreases_with_more_hosted_data(self):
        few = [region(size_bytes=1e9)]
        many = [region(region_id=f"r{i}", size_bytes=1e9) for i in range(4)]
        assert hit_ratio(DEFAULT_HOMOGENEOUS, few) >= hit_ratio(DEFAULT_HOMOGENEOUS, many)

    def test_hit_ratio_bounded(self):
        for size in (1e6, 1e9, 1e11):
            ratio = hit_ratio(DEFAULT_HOMOGENEOUS, [region(size_bytes=size)])
            assert 0.0 <= ratio <= 1.0

    def test_small_working_set_yields_high_hit_ratio(self):
        tight = [region(size_bytes=5e9, hot_data_fraction=0.02, hot_request_fraction=0.95)]
        loose = [region(size_bytes=5e9)]
        assert hit_ratio(DEFAULT_HOMOGENEOUS, tight) > hit_ratio(DEFAULT_HOMOGENEOUS, loose)


class TestWriteModel:
    def test_small_memstore_amplifies_writes(self):
        small = RegionServerConfig(block_cache_fraction=0.5, memstore_fraction=0.10)
        large = RegionServerConfig(block_cache_fraction=0.10, memstore_fraction=0.55)
        assert write_amplification(small) > write_amplification(large)

    def test_write_demand_scales_with_rate(self):
        slow = evaluate_node(DEFAULT_HOMOGENEOUS, [region(read_rate=0.0, update_rate=100.0)])
        fast = evaluate_node(DEFAULT_HOMOGENEOUS, [region(read_rate=0.0, update_rate=1000.0)])
        assert fast.cpu_utilization == pytest.approx(10 * slow.cpu_utilization)
        assert fast.io_wait == pytest.approx(10 * slow.io_wait)

    def test_write_profile_cheaper_for_writes_than_read_profile(self):
        w = row(NODE_PROFILES["write"].config)
        r = row(NODE_PROFILES["read"].config)
        assert w[ROW_WRITE_CPU] < r[ROW_WRITE_CPU]
        assert w[ROW_WRITE_BYTES] < r[ROW_WRITE_BYTES]


class TestReadModel:
    def test_misses_cost_disk_iops(self):
        assert row(DEFAULT_HOMOGENEOUS)[ROW_READ_MISS_IOPS] == 1.0
        # Reads are the node's only disk load, and IOPS bind before bytes.
        result = evaluate_node(DEFAULT_HOMOGENEOUS, [region(size_bytes=2e9, read_rate=100.0)])
        assert 0.0 < result.hit_ratio < 1.0
        assert result.io_wait * HardwareSpec().disk_iops == pytest.approx(
            (1.0 - result.hit_ratio) * 100.0
        )

    def test_full_hit_costs_no_disk(self):
        result = evaluate_node(DEFAULT_HOMOGENEOUS, [region(size_bytes=1e6, read_rate=100.0)])
        assert result.hit_ratio == 1.0
        assert result.io_wait == 0.0

    def test_remote_misses_cost_network_and_extra_iops(self):
        local = row(DEFAULT_HOMOGENEOUS, locality=1.0)
        remote = row(DEFAULT_HOMOGENEOUS, locality=0.0)
        assert remote[ROW_READ_MISS_NET] > local[ROW_READ_MISS_NET]
        assert remote[ROW_READ_MISS_IOPS] > local[ROW_READ_MISS_IOPS]

    def test_smaller_blocks_read_fewer_bytes_per_miss(self):
        small = DEFAULT_HOMOGENEOUS.with_overrides(block_size_bytes=32 * 1024)
        large = DEFAULT_HOMOGENEOUS.with_overrides(block_size_bytes=128 * 1024)
        assert row(small)[ROW_READ_MISS_BYTES] < row(large)[ROW_READ_MISS_BYTES]


class TestScanModel:
    def test_larger_blocks_make_scans_cheaper(self):
        small = DEFAULT_HOMOGENEOUS.with_overrides(block_size_bytes=32 * 1024)
        large = DEFAULT_HOMOGENEOUS.with_overrides(block_size_bytes=128 * 1024)
        small_row = row(small, scan_length=100)
        large_row = row(large, scan_length=100)
        assert large_row[ROW_SCAN_CPU] < small_row[ROW_SCAN_CPU]
        assert large_row[ROW_SCAN_MISS_IOPS] < small_row[ROW_SCAN_MISS_IOPS]

    def test_scan_more_expensive_than_read(self):
        read = evaluate_node(DEFAULT_HOMOGENEOUS, [region(read_rate=100.0)])
        scan = evaluate_node(DEFAULT_HOMOGENEOUS, [region(read_rate=0.0, scan_rate=100.0)])
        assert scan.cpu_utilization > read.cpu_utilization

    def test_rmw_costs_read_plus_write(self):
        rmw = evaluate_node(DEFAULT_HOMOGENEOUS, [region(read_rate=0.0, rmw_rate=100.0)])
        read = evaluate_node(DEFAULT_HOMOGENEOUS, [region(read_rate=100.0)])
        write = evaluate_node(DEFAULT_HOMOGENEOUS, [region(read_rate=0.0, update_rate=100.0)])
        assert rmw.hit_ratio == read.hit_ratio
        assert rmw.cpu_utilization == pytest.approx(
            read.cpu_utilization + write.cpu_utilization
        )


class TestNodeEvaluation:
    def test_idle_node_has_zero_utilization(self):
        result = evaluate_node(DEFAULT_HOMOGENEOUS, [])
        assert result.utilization == 0.0
        assert result.hit_ratio == 1.0

    def test_utilization_grows_with_load(self):
        light = evaluate_node(DEFAULT_HOMOGENEOUS, [region(read_rate=100.0)])
        heavy = evaluate_node(DEFAULT_HOMOGENEOUS, [region(read_rate=10000.0)])
        assert heavy.utilization > light.utilization

    def test_latencies_inflate_under_load(self):
        light = evaluate_node(DEFAULT_HOMOGENEOUS, [region(read_rate=100.0)])
        heavy = evaluate_node(DEFAULT_HOMOGENEOUS, [region(read_rate=50000.0)])
        assert heavy.per_op_latency_ms["read"] > light.per_op_latency_ms["read"]

    def test_all_op_latencies_present(self):
        result = evaluate_node(DEFAULT_HOMOGENEOUS, [region()])
        assert set(result.per_op_latency_ms) == {
            "read",
            "update",
            "insert",
            "scan",
            "read_modify_write",
        }

    def test_background_compaction_raises_io_wait(self):
        quiet = evaluate_node(DEFAULT_HOMOGENEOUS, [region()])
        busy = evaluate_node(DEFAULT_HOMOGENEOUS, [region()], background=50e6)
        assert busy.io_wait > quiet.io_wait

    def test_read_profile_beats_write_profile_for_read_heavy_node(self):
        regions = [region(size_bytes=1.5e9, read_rate=5000.0)]
        read_result = evaluate_node(NODE_PROFILES["read"].config, regions)
        write_result = evaluate_node(NODE_PROFILES["write"].config, regions)
        assert read_result.utilization < write_result.utilization

    def test_write_profile_beats_read_profile_for_write_heavy_node(self):
        regions = [region(read_rate=0.0, update_rate=5000.0)]
        write_result = evaluate_node(NODE_PROFILES["write"].config, regions)
        read_result = evaluate_node(NODE_PROFILES["read"].config, regions)
        assert write_result.utilization < read_result.utilization

    def test_scan_profile_beats_default_for_scan_heavy_node(self):
        regions = [region(read_rate=0.0, scan_rate=800.0, scan_length=100)]
        scan_result = evaluate_node(NODE_PROFILES["scan"].config, regions)
        default_result = evaluate_node(DEFAULT_HOMOGENEOUS, regions)
        assert scan_result.utilization < default_result.utilization
