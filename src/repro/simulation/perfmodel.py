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

:class:`NodeEvaluator` is the one implementation: it folds each hosted
region's per-unit-rate costs into a ``ROW_*`` row once per (config,
hardware, hosted regions), and :func:`op_latencies` turns a node's hit
ratio, utilisation and locality into per-op latencies.  The seed's
per-operation formulation of the same model, recomputed region by region
from scratch, lives in ``tests/perfmodel_oracle.py`` as the reference the
evaluator is checked against.

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
class NodeLoadResult:
    """Outcome of evaluating one node for one tick."""

    utilization: float
    cpu_utilization: float
    io_wait: float
    network_utilization: float
    hit_ratio: float
    per_op_latency_ms: dict[str, float] = field(default_factory=dict)


def write_amplification(config: RegionServerConfig) -> float:
    """Bytes written to disk per byte of user write (flush + compaction)."""
    memstore_fraction = max(config.memstore_fraction, 0.01)
    return WRITE_AMP_BASE + WRITE_AMP_MEMSTORE_FACTOR * (
        MEMSTORE_REFERENCE_FRACTION / memstore_fraction
    )


def op_latencies(
    hit, miss, utilization, mean_locality, disk_ms, blocks, scan_length, minimum=min
):
    """The five per-op latencies (ms, ``OP_TYPES`` order) of a node.

    A read pays its hit/miss CPU plus one ``disk_ms`` seek per miss, a
    write a fixed memstore path, a scan its setup, per-record and
    per-block CPU plus half a seek per missed block; remote misses stretch
    reads and scans by ``REMOTE_READ_LATENCY_FACTOR``, and everything is
    inflated by the queueing factor ``1 / (1 - min(rho, 0.97))`` of the
    bottleneck occupancy ``rho = utilization / (1 + utilization)``.  Fed
    the node's hit/miss ratios, bottleneck utilisation and request-weighted
    mean locality plus its per-node statics ``disk_ms``, ``blocks`` and
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
    """Tick-constant evaluation context for one node: the cost model.

    Everything except the offered rates -- hit-ratio inputs, write
    amplification, per-op unit costs keyed on ``(config, region static
    fields)`` -- is constant for a whole tick, so it is built once per
    (hardware, config, hosted regions) combination, cheaply
    :meth:`refresh`-ed when region sizes/localities drift between ticks,
    and its per-iteration entry points only scale precomputed unit demands
    by the current offered rates.

    Rates enter as slot-indexed rows (``OP_TYPES`` order: read, update,
    insert, scan, read_modify_write) so the hot loop never touches string
    keys.  ``tests/perfmodel_oracle.py`` keeps the seed's per-op model
    (same formulas, summed op by op); the differential test in
    ``tests/test_kernel_equivalence.py`` holds the two to 1e-12.

    Scan latency statics come from the node's *first* hosted region
    (``region_ids[0]``): ``blocks0`` and ``scan_length0`` are that region's
    block count and scan length, whatever the other tenants' scans look
    like.  A node that mixes a short-scan tenant with a long-scan one
    reports the scan latency of whichever region it lists first.

    The coefficients are public because the solver's vector loop reads them
    too: ``rows`` (one ``ROW_*``-laid-out list per region, in
    ``region_ids`` order), the effective cache bytes, the resource budgets
    and the latency statics ``disk_ms``/``blocks0``/``scan_length0``.
    """

    __slots__ = (
        "config",
        "region_ids",
        "rows",
        "cache_eff_bytes",
        "cpu_budget",
        "disk_iops_budget",
        "disk_bytes_budget",
        "network_bytes_budget",
        "disk_ms",
        "blocks0",
        "scan_length0",
        "_amplification",
        "_memstore_bytes",
        "_block",
    )

    def __init__(
        self,
        hardware: HardwareSpec,
        config: RegionServerConfig,
        regions: list,
    ) -> None:
        self.config = config
        self.cache_eff_bytes = CACHE_EFFICIENCY * config.block_cache_bytes(hardware.heap_bytes)
        self.cpu_budget = hardware.cpu_millis_per_second
        self.disk_iops_budget = hardware.disk_iops
        self.disk_bytes_budget = hardware.disk_mb_per_second * MB
        self.network_bytes_budget = hardware.network_mb_per_second * MB
        self._amplification = write_amplification(config)
        self._memstore_bytes = max(config.memstore_bytes(hardware.heap_bytes), 1)
        self._block = config.block_size_bytes

        self.region_ids = [region.region_id for region in regions]
        self.rows = [self._build_row(region) for region in regions]

        # Latency statics, keyed on the first hosted region.
        record_size = regions[0].record_size if regions else 1024
        scan_length = regions[0].scan_length if regions else 50
        self.disk_ms = 1000.0 / hardware.disk_iops
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

    def refresh(self, regions: list) -> None:
        """Fold region size/locality drift into the precomputed rows.

        Insert traffic grows ``size_bytes`` a little every tick and moves or
        compactions flip ``locality``; both are folded in at O(changed
        regions) cost so the evaluator memo survives across ticks.  The
        other region fields (record size, scan length, skew fractions) are
        immutable after region creation.
        """
        rows = self.rows
        for index, region in enumerate(regions):
            row = rows[index]
            if row[ROW_LOCALITY] != region.locality:
                rows[index] = self._build_row(region)
            elif row[ROW_SIZE_BYTES] != region.size_bytes:
                size = region.size_bytes
                hot_fraction = row[ROW_HOT_DATA_FRACTION]
                row[ROW_HOT_BYTES] = size * hot_fraction
                row[ROW_COLD_BYTES] = size * (1.0 - hot_fraction)
                row[ROW_SIZE_BYTES] = size

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
        allocating a :class:`NodeLoadResult`.
        """
        hit, miss, cpu, iops, disk_bytes, net, mean_locality = self._demand_pass(
            rate_rows, background_disk_bytes_per_s
        )
        utilization = self._utilizations(cpu, iops, disk_bytes, net)[3]
        return self._latency_dict(hit, miss, utilization, mean_locality)

    def evaluate_rates(
        self, rate_rows: list, background_disk_bytes_per_s: float = 0.0
    ) -> NodeLoadResult:
        """Full evaluation of the node from rate rows."""
        return self.load_result(*self._demand_pass(rate_rows, background_disk_bytes_per_s))

    def load_result(
        self, hit, miss, cpu, iops, disk_bytes, net, mean_locality
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
            network_utilization=net_util,
            hit_ratio=hit,
            per_op_latency_ms=self._latency_dict(hit, miss, utilization, mean_locality),
        )
