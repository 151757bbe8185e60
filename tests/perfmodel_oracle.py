"""The seed's per-operation cost model: the reference for ``NodeEvaluator``.

:class:`PerformanceModel` recomputes every per-op demand from scratch,
region by region and operation by operation, with its own formulas for
write amplification and latencies.  Only the cost constants are shared
with :mod:`repro.simulation.perfmodel`, so a coefficient or formula change
in the production evaluator shows up as a difference against this oracle
(``tests/test_kernel_equivalence.py``).  ``ReferenceSolver``
(``tests/solver_oracles.py``) evaluates its nodes with it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hbase.config import RegionServerConfig
from repro.simulation.hardware import MB, HardwareSpec
from repro.simulation.perfmodel import (
    CACHE_EFFICIENCY,
    CPU_READ_HIT_MS,
    CPU_READ_MISS_MS,
    CPU_RPC_OVERHEAD_MS,
    CPU_SCAN_PER_BLOCK_MS,
    CPU_SCAN_PER_RECORD_MS,
    CPU_SCAN_SETUP_MS,
    CPU_WRITE_COMPACTION_MS_PER_AMP,
    CPU_WRITE_MS,
    HOT_DATA_FRACTION,
    HOT_REQUEST_FRACTION,
    MEMSTORE_REFERENCE_FRACTION,
    REMOTE_READ_IOPS_FACTOR,
    REMOTE_READ_LATENCY_FACTOR,
    WRITE_AMP_BASE,
    WRITE_AMP_MEMSTORE_FACTOR,
    NodeLoadResult,
)


@dataclass
class ServiceDemand:
    """Resource demand of a batch of operations on one node.

    All quantities are *per second* demands produced by multiplying per-op
    costs by offered rates.
    """

    cpu_millis: float = 0.0
    disk_iops: float = 0.0
    disk_bytes: float = 0.0
    network_bytes: float = 0.0

    def add(self, other: "ServiceDemand") -> None:
        """Accumulate another demand into this one."""
        self.cpu_millis += other.cpu_millis
        self.disk_iops += other.disk_iops
        self.disk_bytes += other.disk_bytes
        self.network_bytes += other.network_bytes


@dataclass
class RegionLoadProfile:
    """Static description of one region, plus its offered rates.

    ``hot_data_fraction`` / ``hot_request_fraction`` describe the region's
    access skew: the YCSB hotspot distribution of the paper sends 50% of the
    requests to 40% of the keys, while TPC-C concentrates most reads on a
    small working set of recently written rows.
    """

    region_id: str
    size_bytes: float
    locality: float = 1.0
    record_size: int = 1024
    scan_length: int = 50
    read_rate: float = 0.0
    update_rate: float = 0.0
    insert_rate: float = 0.0
    scan_rate: float = 0.0
    rmw_rate: float = 0.0
    hot_data_fraction: float = HOT_DATA_FRACTION
    hot_request_fraction: float = HOT_REQUEST_FRACTION

    @property
    def total_rate(self) -> float:
        """Total offered operations per second for this region."""
        return (
            self.read_rate
            + self.update_rate
            + self.insert_rate
            + self.scan_rate
            + self.rmw_rate
        )

    @property
    def read_like_rate(self) -> float:
        """Operations that consult the read path (reads + rmw reads)."""
        return self.read_rate + self.rmw_rate


def bottleneck_resource(cpu_util: float, io_wait: float, net_util: float) -> str:
    """Name of the resource with the highest utilisation (ties favour CPU):
    what a per-resource fault, such as a network-only slowdown, shifts."""
    if cpu_util >= io_wait and cpu_util >= net_util:
        return "cpu"
    if io_wait >= net_util:
        return "disk"
    return "network"


def evaluate(evaluator, profiles: list[RegionLoadProfile], background: float = 0.0):
    """``evaluator.evaluate_rates`` fed the rates the ``profiles`` carry."""
    rate_rows = [
        [p.read_rate, p.update_rate, p.insert_rate, p.scan_rate, p.rmw_rate]
        for p in profiles
    ]
    return evaluator.evaluate_rates(rate_rows, background)


class PerformanceModel:
    """Computes resource demands, utilisation and latencies for one node."""

    def __init__(self, hardware: HardwareSpec | None = None) -> None:
        self.hardware = hardware or HardwareSpec()

    # ------------------------------------------------------------------ #
    # cache model
    # ------------------------------------------------------------------ #
    def hit_ratio(
        self, config: RegionServerConfig, regions: list[RegionLoadProfile]
    ) -> float:
        """Block-cache hit ratio for a node hosting ``regions``.

        Requests follow the hotspot distribution: ``HOT_REQUEST_FRACTION`` of
        requests touch ``HOT_DATA_FRACTION`` of the bytes.  The hit ratio is
        the request-weighted fraction of those bytes that fits in the cache.
        """
        read_regions = [r for r in regions if r.read_like_rate > 0 or r.scan_rate > 0]
        if not read_regions:
            return 1.0
        cache_bytes = CACHE_EFFICIENCY * config.block_cache_bytes(self.hardware.heap_bytes)
        hot_bytes = sum(r.size_bytes * r.hot_data_fraction for r in read_regions)
        cold_bytes = sum(
            r.size_bytes * (1.0 - r.hot_data_fraction) for r in read_regions
        )
        if hot_bytes <= 0:
            return 1.0
        total_read_rate = sum(r.read_like_rate + r.scan_rate for r in read_regions)
        if total_read_rate > 0:
            hot_requests = (
                sum(
                    r.hot_request_fraction * (r.read_like_rate + r.scan_rate)
                    for r in read_regions
                )
                / total_read_rate
            )
        else:
            hot_requests = HOT_REQUEST_FRACTION
        hot_covered = min(1.0, cache_bytes / hot_bytes)
        spare = max(0.0, cache_bytes - hot_bytes)
        cold_covered = min(1.0, spare / cold_bytes) if cold_bytes > 0 else 1.0
        return hot_requests * hot_covered + (1.0 - hot_requests) * cold_covered

    # ------------------------------------------------------------------ #
    # per-op costs
    # ------------------------------------------------------------------ #
    def write_amplification(self, config: RegionServerConfig) -> float:
        """Bytes written to disk per byte of user write (flush + compaction)."""
        memstore_fraction = max(config.memstore_fraction, 0.01)
        return WRITE_AMP_BASE + WRITE_AMP_MEMSTORE_FACTOR * (
            MEMSTORE_REFERENCE_FRACTION / memstore_fraction
        )

    def read_demand(
        self,
        config: RegionServerConfig,
        region: RegionLoadProfile,
        hit_ratio: float,
        rate: float,
    ) -> ServiceDemand:
        """Demand of ``rate`` random reads per second against ``region``."""
        miss = max(0.0, 1.0 - hit_ratio)
        remote = max(0.0, 1.0 - region.locality)
        cpu = (
            CPU_RPC_OVERHEAD_MS
            + hit_ratio * CPU_READ_HIT_MS
            + miss * CPU_READ_MISS_MS
        )
        disk_iops = miss * (1.0 + remote * REMOTE_READ_IOPS_FACTOR)
        disk_bytes = miss * config.block_size_bytes
        network_bytes = miss * remote * config.block_size_bytes
        return ServiceDemand(
            cpu_millis=cpu * rate,
            disk_iops=disk_iops * rate,
            disk_bytes=disk_bytes * rate,
            network_bytes=network_bytes * rate,
        )

    def write_demand(
        self,
        config: RegionServerConfig,
        region: RegionLoadProfile,
        rate: float,
    ) -> ServiceDemand:
        """Demand of ``rate`` writes per second against ``region``."""
        amplification = self.write_amplification(config)
        cpu = (
            CPU_RPC_OVERHEAD_MS
            + CPU_WRITE_MS
            + CPU_WRITE_COMPACTION_MS_PER_AMP * amplification
        )
        disk_bytes = region.record_size * amplification
        # Flush/compaction I/O is mostly sequential; charge a small IOPS share
        # proportional to how often the memstore fills up.
        memstore_bytes = max(config.memstore_bytes(self.hardware.heap_bytes), 1)
        flush_iops = region.record_size / memstore_bytes * 400.0
        return ServiceDemand(
            cpu_millis=cpu * rate,
            disk_iops=flush_iops * rate,
            disk_bytes=disk_bytes * rate,
            network_bytes=region.record_size * rate,
        )

    def scan_demand(
        self,
        config: RegionServerConfig,
        region: RegionLoadProfile,
        hit_ratio: float,
        rate: float,
    ) -> ServiceDemand:
        """Demand of ``rate`` scans per second against ``region``."""
        scan_bytes = region.scan_length * region.record_size
        miss = max(0.0, 1.0 - hit_ratio)
        remote = max(0.0, 1.0 - region.locality)
        # The number of blocks touched shrinks as the block size grows, which
        # is why the scan profile uses 128 KB blocks; one extra block accounts
        # for uncompacted store files.
        blocks = max(1.0, scan_bytes / config.block_size_bytes) + 1.0
        cpu = (
            CPU_RPC_OVERHEAD_MS
            + CPU_SCAN_SETUP_MS
            + CPU_SCAN_PER_RECORD_MS * region.scan_length
            + CPU_SCAN_PER_BLOCK_MS * blocks
        )
        disk_iops = miss * blocks * (1.0 + remote * REMOTE_READ_IOPS_FACTOR)
        disk_bytes = miss * blocks * config.block_size_bytes
        network_bytes = scan_bytes + miss * remote * blocks * config.block_size_bytes
        return ServiceDemand(
            cpu_millis=cpu * rate,
            disk_iops=disk_iops * rate,
            disk_bytes=disk_bytes * rate,
            network_bytes=network_bytes * rate,
        )

    def rmw_demand(
        self,
        config: RegionServerConfig,
        region: RegionLoadProfile,
        hit_ratio: float,
        rate: float,
    ) -> ServiceDemand:
        """Demand of ``rate`` read-modify-write operations per second."""
        demand = self.read_demand(config, region, hit_ratio, rate)
        demand.add(self.write_demand(config, region, rate))
        return demand

    # ------------------------------------------------------------------ #
    # node evaluation
    # ------------------------------------------------------------------ #
    def node_demand(
        self,
        config: RegionServerConfig,
        regions: list[RegionLoadProfile],
        background_disk_bytes_per_s: float = 0.0,
    ) -> tuple[ServiceDemand, float]:
        """Aggregate demand for a node and the node's cache hit ratio."""
        hit = self.hit_ratio(config, regions)
        total = ServiceDemand()
        for region in regions:
            if region.read_rate:
                total.add(self.read_demand(config, region, hit, region.read_rate))
            write_rate = region.update_rate + region.insert_rate
            if write_rate:
                total.add(self.write_demand(config, region, write_rate))
            if region.scan_rate:
                total.add(self.scan_demand(config, region, hit, region.scan_rate))
            if region.rmw_rate:
                total.add(self.rmw_demand(config, region, hit, region.rmw_rate))
        total.disk_bytes += background_disk_bytes_per_s
        return total, hit

    def evaluate_node(
        self,
        config: RegionServerConfig,
        regions: list[RegionLoadProfile],
        background_disk_bytes_per_s: float = 0.0,
    ) -> NodeLoadResult:
        """Evaluate utilisation and latencies for one node for one tick."""
        demand, hit = self.node_demand(config, regions, background_disk_bytes_per_s)
        hw = self.hardware
        cpu_util = demand.cpu_millis / hw.cpu_millis_per_second
        iops_util = demand.disk_iops / hw.disk_iops
        disk_bw_util = demand.disk_bytes / (hw.disk_mb_per_second * MB)
        io_wait = max(iops_util, disk_bw_util)
        net_util = demand.network_bytes / (hw.network_mb_per_second * MB)
        utilization = max(cpu_util, io_wait, net_util)

        latencies = self._latencies(config, regions, hit, utilization)
        return NodeLoadResult(
            utilization=utilization,
            cpu_utilization=cpu_util,
            io_wait=io_wait,
            network_utilization=net_util,
            hit_ratio=hit,
            per_op_latency_ms=latencies,
        )

    def _latencies(
        self,
        config: RegionServerConfig,
        regions: list[RegionLoadProfile],
        hit_ratio: float,
        utilization: float,
    ) -> dict[str, float]:
        """Per-op latency estimates under the current utilisation."""
        # Queueing inflation: latencies grow as the bottleneck resource
        # saturates.  The raw utilisation (which can exceed 1 for offered
        # load) is mapped to an occupancy in [0, 1) so the closed-loop fixed
        # point stays stable; the simulator additionally clamps achieved
        # throughput to capacity (work conservation).
        rho = utilization / (1.0 + utilization)
        inflation = 1.0 / (1.0 - min(rho, 0.97))
        miss = max(0.0, 1.0 - hit_ratio)
        disk_ms = 1000.0 / self.hardware.disk_iops
        record_size = regions[0].record_size if regions else 1024
        scan_length = regions[0].scan_length if regions else 50

        read_ms = (
            CPU_READ_HIT_MS * hit_ratio
            + miss * (CPU_READ_MISS_MS + disk_ms)
            + CPU_RPC_OVERHEAD_MS
        )
        write_ms = CPU_WRITE_MS + CPU_RPC_OVERHEAD_MS + 0.2
        blocks = max(1.0, scan_length * record_size / config.block_size_bytes) + 1.0
        scan_ms = (
            CPU_SCAN_SETUP_MS
            + CPU_SCAN_PER_RECORD_MS * scan_length
            + CPU_SCAN_PER_BLOCK_MS * blocks
            + miss * blocks * disk_ms * 0.5
        )
        remote = 1.0 - _mean_locality(regions)
        read_ms *= 1.0 + remote * (REMOTE_READ_LATENCY_FACTOR - 1.0) * miss
        scan_ms *= 1.0 + remote * (REMOTE_READ_LATENCY_FACTOR - 1.0) * miss
        return {
            "read": read_ms * inflation,
            "update": write_ms * inflation,
            "insert": write_ms * inflation,
            "scan": scan_ms * inflation,
            "read_modify_write": (read_ms + write_ms) * inflation,
        }


def _mean_locality(regions: list[RegionLoadProfile]) -> float:
    """Request-weighted mean locality of the regions (1.0 when idle)."""
    total_rate = sum(r.total_rate for r in regions)
    if total_rate <= 0:
        return 1.0
    return sum(r.locality * r.total_rate for r in regions) / total_rate
