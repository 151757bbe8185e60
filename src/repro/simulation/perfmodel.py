"""Per-operation cost model for simulated RegionServers.

The model translates the paper's qualitative performance arguments into
resource demands so that the trade-offs MeT exploits actually materialise in
the simulator:

* reads that hit the block cache cost only CPU; misses pay one random disk
  read of ``block_size`` bytes, plus a network transfer when the block is not
  local (locality index < 1);
* the block-cache hit ratio is the fraction of a node's *hot* hosted bytes
  that fits in its cache (hotspot access pattern, Section 3.1), so giving a
  read-heavy node a bigger cache and fewer partitions directly raises its hit
  ratio;
* writes append to the memstore (CPU + a cheap sequential WAL write) and pay
  an amortised flush/compaction cost that grows when the memstore share is
  small, because small memstores flush often and produce more files to
  compact;
* scans read ``scan_length`` consecutive records; the number of random seeks
  per scan shrinks as the block size grows, which is why the scan profile
  uses 128 KB blocks;
* every operation also costs a fixed handler/CPU overhead, and the handler
  pool bounds concurrency.

The absolute constants were calibrated so a paper-like node (4 GB RAM, one
7200 rpm disk, GbE) serves the same order of magnitude of operations per
second as the testbed in the paper; only the *shape* of the results matters
for the reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hbase.config import RegionServerConfig
from repro.simulation.hardware import MB, HardwareSpec

#: Operation types understood by the model.
OP_TYPES = ("read", "update", "insert", "scan", "read_modify_write")

#: CPU cost (ms) of serving a read from the block cache.
CPU_READ_HIT_MS = 0.35
#: CPU cost (ms) of serving a read that misses the cache.
CPU_READ_MISS_MS = 0.90
#: CPU cost (ms) of appending one update to the memstore.
CPU_WRITE_MS = 0.40
#: CPU cost (ms) per unit of write amplification: flushes and compactions
#: burn CPU as well as disk bandwidth, so small memstores also tax the CPU.
CPU_WRITE_COMPACTION_MS_PER_AMP = 0.05
#: CPU cost (ms) per record touched by a scan.
CPU_SCAN_PER_RECORD_MS = 0.03
#: Fixed CPU cost (ms) of scan setup (iterator open, seek).
CPU_SCAN_SETUP_MS = 0.9
#: CPU cost (ms) per store-file block touched by a scan (seek + decode).
CPU_SCAN_PER_BLOCK_MS = 0.5
#: CPU overhead (ms) per RPC regardless of type.
CPU_RPC_OVERHEAD_MS = 0.15

#: Fraction of the configured block cache that is effectively usable for hot
#: data (index blocks, churn and fragmentation take the rest).
CACHE_EFFICIENCY = 0.75

#: Write amplification floor (WAL + eventual flush).
WRITE_AMP_BASE = 2.0
#: Extra write amplification for a memstore at the reference size; scales
#: inversely with the configured memstore share (small memstores flush often
#: and create more files to compact).
WRITE_AMP_MEMSTORE_FACTOR = 2.5
#: Memstore share used as the reference point for write amplification.
MEMSTORE_REFERENCE_FRACTION = 0.40

#: Fraction of requests that target the hot subset of the key space
#: (YCSB hotspot distribution: 50% of requests to 40% of the keys).
HOT_REQUEST_FRACTION = 0.50
#: Fraction of the key space that makes up the hot subset.
HOT_DATA_FRACTION = 0.40

#: Penalty multiplier on disk latency for a non-local block read (the block
#: must be fetched from another DataNode over the network).
REMOTE_READ_LATENCY_FACTOR = 2.5
#: Extra I/O work per non-local cache miss: the remote DataNode performs the
#: seek and the block travels the network, losing short-circuit reads.
REMOTE_READ_IOPS_FACTOR = 1.0


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

    def scaled(self, factor: float) -> "ServiceDemand":
        """Return a copy scaled by ``factor``."""
        return ServiceDemand(
            cpu_millis=self.cpu_millis * factor,
            disk_iops=self.disk_iops * factor,
            disk_bytes=self.disk_bytes * factor,
            network_bytes=self.network_bytes * factor,
        )


@dataclass
class RegionLoadProfile:
    """Static description of one region as seen by the cost model.

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


@dataclass
class NodeLoadResult:
    """Outcome of evaluating one node for one tick."""

    utilization: float
    cpu_utilization: float
    io_wait: float
    memory_utilization: float
    network_utilization: float
    demand: ServiceDemand
    hit_ratio: float
    per_op_latency_ms: dict[str, float] = field(default_factory=dict)
    #: Which resource bounds this node ("cpu", "disk" or "network") -- what a
    #: per-resource fault (e.g. a network-only slowdown) shifts.
    bottleneck: str = "cpu"


def bottleneck_resource(cpu_util: float, io_wait: float, net_util: float) -> str:
    """Name of the resource with the highest utilisation (ties favour CPU)."""
    if cpu_util >= io_wait and cpu_util >= net_util:
        return "cpu"
    if io_wait >= net_util:
        return "disk"
    return "network"


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

        hosted_bytes = sum(r.size_bytes for r in regions)
        cache_bytes = config.block_cache_bytes(hw.heap_bytes)
        memstore_bytes = config.memstore_bytes(hw.heap_bytes)
        used = min(cache_bytes, hosted_bytes * 0.6) + memstore_bytes * 0.5 + 0.6 * hw.heap_bytes * 0.2
        memory_utilization = min(1.0, (used + 0.5 * (hw.memory_bytes - hw.heap_bytes)) / hw.memory_bytes)

        latencies = self._latencies(config, regions, hit, utilization)
        return NodeLoadResult(
            utilization=utilization,
            cpu_utilization=cpu_util,
            io_wait=io_wait,
            memory_utilization=memory_utilization,
            network_utilization=net_util,
            demand=demand,
            hit_ratio=hit,
            per_op_latency_ms=latencies,
            bottleneck=bottleneck_resource(cpu_util, io_wait, net_util),
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


def op_latencies(
    hit, miss, utilization, mean_locality, disk_ms, blocks, scan_length, minimum=min
):
    """The five per-op latencies (ms, ``OP_TYPES`` order) of a node.

    The formula of :meth:`PerformanceModel._latencies`, fed the node's
    hit/miss ratios, bottleneck utilisation and request-weighted mean
    locality plus its per-node statics ``disk_ms``, ``blocks`` and
    ``scan_length``.  Only arithmetic and one clamp (``minimum``), so the
    scalar solver loop passes floats and the vector loop passes numpy
    columns with ``minimum=np.minimum``; both get the same bits per node.
    """
    rho = utilization / (1.0 + utilization)
    inflation = 1.0 / (1.0 - minimum(rho, 0.97))
    read_ms = (
        CPU_READ_HIT_MS * hit
        + miss * (CPU_READ_MISS_MS + disk_ms)
        + CPU_RPC_OVERHEAD_MS
    )
    write_ms = CPU_WRITE_MS + CPU_RPC_OVERHEAD_MS + 0.2
    scan_ms = (
        CPU_SCAN_SETUP_MS
        + CPU_SCAN_PER_RECORD_MS * scan_length
        + CPU_SCAN_PER_BLOCK_MS * blocks
        + miss * blocks * disk_ms * 0.5
    )
    remote = 1.0 - mean_locality
    read_ms *= 1.0 + remote * (REMOTE_READ_LATENCY_FACTOR - 1.0) * miss
    scan_ms *= 1.0 + remote * (REMOTE_READ_LATENCY_FACTOR - 1.0) * miss
    return (
        read_ms * inflation,
        write_ms * inflation,
        write_ms * inflation,
        scan_ms * inflation,
        (read_ms + write_ms) * inflation,
    )


def _mean_locality(regions: list[RegionLoadProfile]) -> float:
    """Request-weighted mean locality of the regions (1.0 when idle)."""
    total_rate = sum(r.total_rate for r in regions)
    if total_rate <= 0:
        return 1.0
    return sum(r.locality * r.total_rate for r in regions) / total_rate


# Per-region unit-demand row layout of :class:`NodeEvaluator` (one
# ``ROW_WIDTH``-float list per hosted region).  The scalar loop
# (``NodeEvaluator._demand_pass``) indexes rows with these positions as
# literals for speed; the solver's vector loop stacks the rows into columns
# and reads them by name.
#: Read path: base CPU per read, then the miss-scaled CPU delta, IOPS,
#: disk bytes and network bytes per read.
ROW_READ_CPU = 0
ROW_READ_MISS_CPU = 1
ROW_READ_MISS_IOPS = 2
ROW_READ_MISS_BYTES = 3
ROW_READ_MISS_NET = 4
#: Write path (fully static per unit rate): CPU, IOPS, disk bytes, network.
ROW_WRITE_CPU = 5
ROW_WRITE_IOPS = 6
ROW_WRITE_BYTES = 7
ROW_WRITE_NET = 8
#: Scan path: base CPU and network per scan, then the miss-scaled IOPS,
#: disk bytes and network bytes per scan.
ROW_SCAN_CPU = 9
ROW_SCAN_NET = 10
ROW_SCAN_MISS_IOPS = 11
ROW_SCAN_MISS_BYTES = 12
ROW_SCAN_MISS_NET = 13
#: Hit-ratio inputs: hot bytes, cold bytes, hot request fraction, locality.
ROW_HOT_BYTES = 14
ROW_COLD_BYTES = 15
ROW_HOT_REQUEST_FRACTION = 16
ROW_LOCALITY = 17
#: Refresh bookkeeping: the region size and hot-data fraction the row's
#: size-dependent slots were computed from.
ROW_SIZE_BYTES = 18
ROW_HOT_DATA_FRACTION = 19
ROW_WIDTH = 20


class NodeEvaluator:
    """Tick-constant evaluation context for one node.

    :meth:`PerformanceModel.evaluate_node` recomputes every per-op unit cost
    from scratch on each call, even though everything except the offered
    rates -- hit-ratio inputs, write amplification, per-op unit costs keyed
    on ``(config, region static fields)`` -- is constant for a whole tick.
    ``NodeEvaluator`` hoists that static part out of the fixed-point loop:
    it is built once per (config, hosted regions) combination, cheaply
    :meth:`refresh`-ed when region sizes/localities drift between ticks,
    and its per-iteration entry points only scale precomputed unit demands
    by the current offered rates.

    Rates enter as slot-indexed rows (``OP_TYPES`` order: read, update,
    insert, scan, read_modify_write) so the hot loop never touches string
    keys.  Results are numerically equivalent to ``evaluate_node`` (same
    formulas, re-associated floating-point sums), which the kernel
    equivalence regression test checks end-to-end.

    The coefficients are public because the solver's vector loop reads them
    too: ``rows`` (one ``ROW_*``-laid-out list per region, in
    ``region_ids`` order), the effective cache bytes, the resource budgets
    and the latency statics ``disk_ms``/``blocks0``/``scan_length0``.
    """

    __slots__ = (
        "hardware",
        "config",
        "region_ids",
        "memory_utilization",
        "rows",
        "cache_eff_bytes",
        "cpu_budget",
        "disk_iops_budget",
        "disk_bytes_budget",
        "network_bytes_budget",
        "disk_ms",
        "blocks0",
        "scan_length0",
        "_cache_bytes",
        "_amplification",
        "_memstore_bytes",
        "_block",
    )

    def __init__(
        self,
        model: PerformanceModel,
        config: RegionServerConfig,
        regions: list,
    ) -> None:
        hw = model.hardware
        self.hardware = hw
        self.config = config
        self._cache_bytes = config.block_cache_bytes(hw.heap_bytes)
        self.cache_eff_bytes = CACHE_EFFICIENCY * self._cache_bytes
        self.cpu_budget = hw.cpu_millis_per_second
        self.disk_iops_budget = hw.disk_iops
        self.disk_bytes_budget = hw.disk_mb_per_second * MB
        self.network_bytes_budget = hw.network_mb_per_second * MB
        self._amplification = model.write_amplification(config)
        self._memstore_bytes = max(config.memstore_bytes(hw.heap_bytes), 1)
        self._block = config.block_size_bytes

        self.region_ids = [region.region_id for region in regions]
        self.rows = [self._build_row(region) for region in regions]
        self._recompute_memory_utilization()

        # Latency statics (evaluate_node keys them on the first region).
        record_size = regions[0].record_size if regions else 1024
        scan_length = regions[0].scan_length if regions else 50
        self.disk_ms = 1000.0 / hw.disk_iops
        self.blocks0 = max(1.0, scan_length * record_size / self._block) + 1.0
        self.scan_length0 = scan_length

    def _build_row(self, region) -> list[float]:
        block = self._block
        remote = max(0.0, 1.0 - region.locality)
        scan_bytes = region.scan_length * region.record_size
        blocks = max(1.0, scan_bytes / block) + 1.0
        return [
            # read path: cpu = base + miss * delta (hit == 1 - miss)
            CPU_RPC_OVERHEAD_MS + CPU_READ_HIT_MS,
            CPU_READ_MISS_MS - CPU_READ_HIT_MS,
            1.0 + remote * REMOTE_READ_IOPS_FACTOR,
            float(block),
            remote * block,
            # write path (fully static per unit rate)
            CPU_RPC_OVERHEAD_MS
            + CPU_WRITE_MS
            + CPU_WRITE_COMPACTION_MS_PER_AMP * self._amplification,
            region.record_size / self._memstore_bytes * 400.0,
            region.record_size * self._amplification,
            float(region.record_size),
            # scan path
            CPU_RPC_OVERHEAD_MS
            + CPU_SCAN_SETUP_MS
            + CPU_SCAN_PER_RECORD_MS * region.scan_length
            + CPU_SCAN_PER_BLOCK_MS * blocks,
            float(scan_bytes),
            blocks * (1.0 + remote * REMOTE_READ_IOPS_FACTOR),
            blocks * block,
            remote * blocks * block,
            # hit-ratio inputs
            region.size_bytes * region.hot_data_fraction,
            region.size_bytes * (1.0 - region.hot_data_fraction),
            region.hot_request_fraction,
            region.locality,
            # refresh bookkeeping
            region.size_bytes,
            region.hot_data_fraction,
        ]

    def memory_utilization_at(self, hosted_bytes: float) -> float:
        """Memory utilisation of this node while it hosts ``hosted_bytes``.

        Only hosted bytes vary at a fixed config and hardware, so this is
        the one place the formula lives for both solver loops.
        """
        hw = self.hardware
        used = (
            min(self._cache_bytes, hosted_bytes * 0.6)
            + self._memstore_bytes * 0.5
            + 0.6 * hw.heap_bytes * 0.2
        )
        return min(
            1.0, (used + 0.5 * (hw.memory_bytes - hw.heap_bytes)) / hw.memory_bytes
        )

    def _recompute_memory_utilization(self) -> None:
        hosted_bytes = 0.0
        for row in self.rows:
            hosted_bytes += row[ROW_SIZE_BYTES]
        self.memory_utilization = self.memory_utilization_at(hosted_bytes)

    def refresh(self, regions: list) -> None:
        """Fold region size/locality drift into the precomputed rows.

        Insert traffic grows ``size_bytes`` a little every tick and moves or
        compactions flip ``locality``; both are folded in at O(changed
        regions) cost so the evaluator memo survives across ticks.  The
        other region fields (record size, scan length, skew fractions) are
        immutable after region creation.
        """
        rows = self.rows
        sizes_changed = False
        for index, region in enumerate(regions):
            row = rows[index]
            if row[ROW_LOCALITY] != region.locality:
                sizes_changed = sizes_changed or row[ROW_SIZE_BYTES] != region.size_bytes
                rows[index] = self._build_row(region)
            elif row[ROW_SIZE_BYTES] != region.size_bytes:
                size = region.size_bytes
                hot_fraction = row[ROW_HOT_DATA_FRACTION]
                row[ROW_HOT_BYTES] = size * hot_fraction
                row[ROW_COLD_BYTES] = size * (1.0 - hot_fraction)
                row[ROW_SIZE_BYTES] = size
                sizes_changed = True
        if sizes_changed:
            self._recompute_memory_utilization()

    def _demand_pass(
        self, rate_rows: list, background_disk_bytes_per_s: float
    ) -> tuple[float, float, float, float, float, float, float]:
        """Fused single pass: hit-ratio inputs + demand accumulation.

        ``rate_rows`` holds one slot-indexed rate list per hosted region
        (``None`` for regions with no offered traffic).  Returns ``(hit,
        miss, cpu, iops, disk_bytes, net, mean_locality)``.
        """
        hot = cold = read_rate_sum = hot_req = 0.0
        cpu = iops = disk_bytes = net = 0.0
        m_cpu = m_iops = m_bytes = m_net = 0.0
        total_rate = weighted_locality = 0.0
        for row, rates in zip(self.rows, rate_rows):
            if rates is None:
                continue
            read, update, insert, scan, rmw = rates
            rr = read + rmw + scan
            if rr > 0.0:
                hot += row[14]
                cold += row[15]
                read_rate_sum += rr
                hot_req += row[16] * rr
            read_like = read + rmw
            if read_like:
                cpu += read_like * row[0]
                m_cpu += read_like * row[1]
                m_iops += read_like * row[2]
                m_bytes += read_like * row[3]
                m_net += read_like * row[4]
            write = update + insert + rmw
            if write:
                cpu += write * row[5]
                iops += write * row[6]
                disk_bytes += write * row[7]
                net += write * row[8]
            if scan:
                cpu += scan * row[9]
                net += scan * row[10]
                m_iops += scan * row[11]
                m_bytes += scan * row[12]
                m_net += scan * row[13]
            rate = read + update + insert + scan + rmw
            if rate:
                total_rate += rate
                weighted_locality += row[17] * rate

        if read_rate_sum > 0.0 and hot > 0.0:
            cache = self.cache_eff_bytes
            hot_requests = hot_req / read_rate_sum
            hot_covered = min(1.0, cache / hot)
            spare = max(0.0, cache - hot)
            cold_covered = min(1.0, spare / cold) if cold > 0 else 1.0
            hit = hot_requests * hot_covered + (1.0 - hot_requests) * cold_covered
        else:
            hit = 1.0
        miss = 1.0 - hit
        if miss < 0.0:
            miss = 0.0

        cpu += miss * m_cpu
        iops += miss * m_iops
        disk_bytes += miss * m_bytes + background_disk_bytes_per_s
        net += miss * m_net
        mean_locality = weighted_locality / total_rate if total_rate > 0.0 else 1.0
        return hit, miss, cpu, iops, disk_bytes, net, mean_locality

    def _utilizations(
        self, cpu: float, iops: float, disk_bytes: float, net: float
    ) -> tuple[float, float, float, float]:
        """``(cpu, io_wait, network, bottleneck)`` utilisation of demand sums."""
        cpu_util = cpu / self.cpu_budget
        io_wait = max(iops / self.disk_iops_budget, disk_bytes / self.disk_bytes_budget)
        net_util = net / self.network_bytes_budget
        return cpu_util, io_wait, net_util, max(cpu_util, io_wait, net_util)

    def _latency_dict(
        self, hit: float, miss: float, utilization: float, mean_locality: float
    ) -> dict[str, float]:
        latencies = op_latencies(
            hit, miss, utilization, mean_locality, self.disk_ms, self.blocks0, self.scan_length0
        )
        return dict(zip(OP_TYPES, latencies))

    def latencies(
        self, rate_rows: list, background_disk_bytes_per_s: float = 0.0
    ) -> dict[str, float]:
        """Per-op latencies only -- the cheap inner fixed-point iteration.

        Intermediate iterations need nothing but latencies, so this skips
        allocating :class:`NodeLoadResult`/:class:`ServiceDemand` objects.
        """
        hit, miss, cpu, iops, disk_bytes, net, mean_locality = self._demand_pass(
            rate_rows, background_disk_bytes_per_s
        )
        utilization = self._utilizations(cpu, iops, disk_bytes, net)[3]
        return self._latency_dict(hit, miss, utilization, mean_locality)

    def evaluate_rates(
        self, rate_rows: list, background_disk_bytes_per_s: float = 0.0
    ) -> NodeLoadResult:
        """Full evaluation (equivalent to ``evaluate_node``) from rate rows."""
        return self.load_result(
            *self._demand_pass(rate_rows, background_disk_bytes_per_s),
            self.memory_utilization,
        )

    def load_result(
        self, hit, miss, cpu, iops, disk_bytes, net, mean_locality, memory_utilization
    ) -> NodeLoadResult:
        """The node's :class:`NodeLoadResult` from its per-node float sums.

        The one place both solver loops turn sums into a result: the scalar
        loop through :meth:`evaluate_rates`, the vector loop with one
        column entry per node.
        """
        cpu_util, io_wait, net_util, utilization = self._utilizations(
            cpu, iops, disk_bytes, net
        )
        return NodeLoadResult(
            utilization=utilization,
            cpu_utilization=cpu_util,
            io_wait=io_wait,
            memory_utilization=memory_utilization,
            network_utilization=net_util,
            demand=ServiceDemand(
                cpu_millis=cpu,
                disk_iops=iops,
                disk_bytes=disk_bytes,
                network_bytes=net,
            ),
            hit_ratio=hit,
            per_op_latency_ms=self._latency_dict(hit, miss, utilization, mean_locality),
            bottleneck=bottleneck_resource(cpu_util, io_wait, net_util),
        )

    def evaluate(
        self,
        regions: list[RegionLoadProfile],
        background_disk_bytes_per_s: float = 0.0,
    ) -> NodeLoadResult:
        """Evaluate from rate-carrying profiles (unit-test convenience)."""
        rate_rows = [
            [p.read_rate, p.update_rate, p.insert_rate, p.scan_rate, p.rmw_rate]
            for p in regions
        ]
        return self.evaluate_rates(rate_rows, background_disk_bytes_per_s)
