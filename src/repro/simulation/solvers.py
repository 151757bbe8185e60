"""The fixed-point solver of :class:`ClusterSimulator`.

The simulator's tick loop needs, per tick, the closed-loop throughput fixed
point: per-binding achieved throughput, per-node model results, per-region
achieved rates, per-binding mean latency and per-binding latency
distribution summaries.  :class:`EventSolver` produces it:

* *solution reuse*: a tick-stable, insert-free fixed point is replayed
  verbatim until a dirty flag (any simulator mutation), a background-I/O
  change or an internal event invalidates it;
* real solves run one of two inner loops over the same cost model, picked
  by cluster size.  The *scalar* loop evaluates nodes through memoised
  :class:`NodeEvaluator` contexts over slot-indexed rate rows; the *vector*
  loop keeps per-region demand/cost rows in contiguous numpy arrays grouped
  by node, so one ``np.add.reduceat`` aggregates all nodes per fixed-point
  iteration.  Array set-up dominates small clusters, so the vector loop runs
  from :data:`VECTOR_MIN_REGIONS` regions up; the two agree to float
  rounding.

The solver shares the simulator's topology caches (region index,
assignment versions); its private state (evaluator memos, rate contexts,
the cached solution, the vector context) is dropped through
:meth:`EventSolver.invalidate` / :meth:`EventSolver.forget_node`, which
every simulator mutator calls.
"""

from __future__ import annotations

import numpy as np

from repro.simulation.hardware import MB
from repro.simulation.latency import LatencySummary, bin_index, quantise_weight
from repro.simulation.perfmodel import (
    CPU_READ_HIT_MS,
    CPU_READ_MISS_MS,
    CPU_RPC_OVERHEAD_MS,
    CPU_SCAN_PER_BLOCK_MS,
    CPU_SCAN_PER_RECORD_MS,
    CPU_SCAN_SETUP_MS,
    CPU_WRITE_COMPACTION_MS_PER_AMP,
    CPU_WRITE_MS,
    CACHE_EFFICIENCY,
    MEMSTORE_REFERENCE_FRACTION,
    NodeEvaluator,
    NodeLoadResult,
    OP_TYPES,
    REMOTE_READ_IOPS_FACTOR,
    REMOTE_READ_LATENCY_FACTOR,
    ServiceDemand,
    WRITE_AMP_BASE,
    WRITE_AMP_MEMSTORE_FACTOR,
    _bottleneck,
)

#: Hosted-region count from which the vector loop beats the scalar one
#: (array set-up dominates tiny clusters).
VECTOR_MIN_REGIONS = 64

#: Relative tolerance at which the damped fixed-point iteration stops; tight
#: enough that the solver agrees with the seed's fixed-iteration solve to
#: well within 1e-6 relative on per-binding throughput series.
FIXED_POINT_TOLERANCE = 1e-8
#: Iteration cap of the fixed-point solve (the seed always ran this many).
FIXED_POINT_MAX_ITERATIONS = 10

#: Operation name -> slot in the 5-float rate rows (``OP_TYPES`` order).
_OP_SLOT = {op: slot for slot, op in enumerate(OP_TYPES)}
#: Zero template for resetting rate rows via slice assignment.
_ZERO_RATES = (0.0, 0.0, 0.0, 0.0, 0.0)

#: Read-path unit CPU costs (see NodeEvaluator row layout): base per read
#: regardless of cache outcome, and the extra paid per miss.
_R_CPU_BASE = CPU_RPC_OVERHEAD_MS + CPU_READ_HIT_MS
_R_CPU_MISS_DELTA = CPU_READ_MISS_MS - CPU_READ_HIT_MS

#: The solver result tuple: (achieved throughputs, node results,
#: region rates, binding latencies, binding latency summaries).
SolveResult = tuple[
    dict[str, float],
    dict[str, object],
    dict[str, dict[str, float]],
    dict[str, float],
    dict[str, LatencySummary],
]

#: Latency (ms) charged to requests against an unavailable region (node
#: restarting): requests block and retry.
UNAVAILABLE_MS = 500.0


def binding_summaries(
    bindings: dict,
    region_node: dict[str, str | None],
    node_latencies: dict[str, dict[str, float]],
) -> dict[str, LatencySummary]:
    """Per-binding latency distributions at one solved fixed point.

    Shared by both inner loops (and the test oracle) so the distribution
    channel cannot drift between them: each hands over its final per-node
    per-op latency dicts and the region->node map, and the atoms recorded here are exactly
    the ``region_weight * op_fraction`` terms of the scalar mean -- the
    summary's weighted mean and ``binding_latency`` agree by construction,
    while the summary keeps the shape the mean throws away.

    Latencies are binned once per node (every region of a node shares its
    latency dict), so cost is O(nodes * ops + bindings * regions * ops)
    integer work per solve.
    """
    node_bins: dict[str, dict[str, int]] = {}
    sentinel_bin = bin_index(UNAVAILABLE_MS)
    fallback_bin = bin_index(1.0)  # unknown op: binding_latency's 1.0 ms default
    summaries: dict[str, LatencySummary] = {}
    for name, binding in bindings.items():
        summary = LatencySummary()
        counts = summary.counts
        mix = binding.op_mix.items()
        for region_id, weight in binding.region_weights.items():
            node_name = region_node.get(region_id)
            if node_name is None:
                for _, fraction in mix:
                    count = quantise_weight(weight * fraction)
                    if count:
                        counts[sentinel_bin] = counts.get(sentinel_bin, 0) + count
                continue
            bins = node_bins.get(node_name)
            if bins is None:
                bins = node_bins[node_name] = {
                    op: bin_index(value)
                    for op, value in node_latencies[node_name].items()
                }
            for op, fraction in mix:
                index = bins.get(op, fallback_bin)
                count = quantise_weight(weight * fraction)
                if count:
                    counts[index] = counts.get(index, 0) + count
        summaries[name] = summary
    return summaries


def _damp(throughputs: dict[str, float], name: str, target: float) -> bool:
    """One damped fixed-point step for binding ``name``.

    Moves its throughput halfway towards ``target`` and returns whether the
    step was still larger than :data:`FIXED_POINT_TOLERANCE` (relative).
    """
    previous = throughputs[name]
    updated = 0.5 * previous + 0.5 * target
    throughputs[name] = updated
    return abs(updated - previous) > FIXED_POINT_TOLERANCE * max(
        abs(previous), abs(updated), 1.0
    )


class _VectorContext:
    """Columnar view of the online cluster for the vectorised solver.

    Regions are laid out contiguously grouped by hosting node (nodes in
    simulator insertion order, regions in creation order within a node) so
    ``np.add.reduceat`` over ``offsets`` yields per-node sums in exactly the
    order the scalar loop accumulates them.  Static columns are built once
    per (workloads, structure) signature; size/locality-dependent columns
    are refreshed cheaply every solve (insert growth, moves, compactions).
    """

    __slots__ = (
        "regions",
        "node_names",
        "empty_nodes",
        "offsets",
        "node_idx",
        "region_node",
        # per-node parameter arrays (length N)
        "cache_eff",
        "cpu_budget",
        "iops_budget",
        "bytes_budget",
        "net_budget",
        "disk_ms",
        "blocks0",
        "scan_len0",
        "cache_bytes_mem",
        "memstore",
        "heap_bytes",
        "memory_bytes",
        "background",
        # per-region static columns (length R)
        "hot_frac",
        "hot_req_frac",
        "blockR",
        "blocksR",
        "w_cpu",
        "w_iops",
        "w_bytes",
        "w_net",
        "s_cpu",
        "s_net0",
        "s_bytes",
        # per-region dynamic columns (refreshed each solve)
        "sizes",
        "hot_bytes",
        "cold_bytes",
        "loc",
        "r_iops",
        "r_netm",
        "s_iops",
        "s_netm",
        # workload structures
        "binding_fill",
        "binding_terms",
        "mix_matrix",
        # scratch
        "rates",
    )


class EventSolver:
    """Cached-solution reuse over a scalar and a vectorised real solve.

    Reuse is conservative.  A cached solution is only replayed when ALL of:

    * no simulator mutation since the solve (every mutator calls
      :meth:`invalidate`; the (workloads, structure) version signature is a
      second line of defence against direct-attribute mutation);
    * the solve was *tick-stable*: its achieved throughputs equal, bit for
      bit, the seed throughputs it started from (each solve seeds the
      damped iteration with the previous tick's achieved values, so a
      stable solve guarantees the next solve is a deterministic replay --
      regardless of whether the inner iteration hit tolerance);
    * the solution carries zero insert traffic (inserts grow region sizes
      every tick, which drifts hit ratios -- data growth is a dirty flag);
    * the per-node compaction background I/O is unchanged.
    """

    def __init__(self, simulator) -> None:
        self._sim = simulator
        #: Per-node memo of (key, NodeEvaluator); the key is (config,
        #: hardware, assignment version) so config/assignment changes
        #: invalidate explicitly while size/locality drift is refreshed.
        self._node_evaluators: dict[str, tuple[object, NodeEvaluator]] = {}
        self._rate_context_cache: tuple[int, dict, list] | None = None
        self._cached: SolveResult | None = None
        self._cached_bg: dict[str, float] = {}
        self._cached_sig: tuple[int, int] | None = None
        self._cached_reusable = False
        self._vector_ctx: _VectorContext | None = None
        self._vector_sig: tuple[int, int] | None = None

    # -- cache management ------------------------------------------------ #
    def invalidate(self) -> None:
        """Drop the cached solution (called by every simulator mutator)."""
        self._cached = None

    def forget_node(self, name: str) -> None:
        """Drop per-node solver state when a node is removed."""
        self._node_evaluators.pop(name, None)
        self._cached = None

    def _signature(self) -> tuple[int, int]:
        sim = self._sim
        return (sim._workloads_version, sim._structure_version)

    def reuse_ready(self) -> bool:
        """Whether the next tick could reuse the cached solution."""
        return (
            self._cached is not None
            and self._cached_reusable
            and self._cached_sig == self._signature()
        )

    def reuse(self, compaction_bg: dict[str, float]) -> SolveResult | None:
        """The cached solution if it is valid for this tick, else ``None``."""
        if not self.reuse_ready():
            return None
        if compaction_bg != self._cached_bg:
            return None
        return self._cached

    def solve(self, compaction_bg: dict[str, float]) -> SolveResult:
        """Solve the closed-loop fixed point for this tick.

        Achieved throughput is work-conserving: offered load on a node is
        clamped to the node's capacity (utilisation 1.0).
        """
        # Snapshot the solve's seed: each solve starts the damped iteration
        # from the previous tick's *achieved* throughput.  When this solve's
        # achieved output equals its own seed bit-for-bit, the next solve is
        # a deterministic replay of this one -- the tick-to-tick map has
        # reached its fixed point -- so the solution may be reused verbatim.
        sim = self._sim
        seeds = {
            name: sim._binding_throughput.get(name, binding.threads * 50.0)
            for name, binding in sim.bindings.items()
        }
        if len(sim.regions) >= VECTOR_MIN_REGIONS:
            results = self._solve_vector(compaction_bg)
        else:
            results = self._solve_scalar(compaction_bg)

        achieved = results[0]
        region_rates = results[2]
        insert_free = True
        for rates in region_rates.values():
            if rates.get("insert", 0.0) > 0.0:
                insert_free = False
                break
        stable = len(achieved) == len(seeds) and all(
            achieved.get(name) == seed for name, seed in seeds.items()
        )
        self._cached = results
        self._cached_bg = dict(compaction_bg)
        self._cached_sig = self._signature()
        self._cached_reusable = stable and insert_free
        return results

    # -- scalar loop ----------------------------------------------------- #
    def _tick_node_context(self) -> list[tuple[str, NodeEvaluator]]:
        """Per-online-node memoised evaluators, refreshed for drift."""
        sim = self._sim
        context = []
        memo = self._node_evaluators
        versions = sim._assignment_versions
        for node in sim.nodes.values():
            if not node.online:
                continue
            name = node.name
            key = (node.config, node.hardware, versions.get(name, 0))
            cached = memo.get(name)
            hosted = sim.regions_on(name)
            if cached is not None and cached[0] == key:
                evaluator = cached[1]
                evaluator.refresh(hosted)
            else:
                evaluator = NodeEvaluator(sim._model_for(node), node.config, hosted)
                memo[name] = (key, evaluator)
            context.append((name, evaluator))
        return context

    def _tick_rate_context(self):
        """Slot-indexed offered-rate rows plus per-binding unit rates.

        ``offered_loads(t)`` is linear in ``t``, so the per-region per-op
        rates implied by a set of binding throughputs are ``t * unit``.
        Rates live in one 5-slot list per region (``OP_TYPES`` order); the
        whole structure is cached until a workload is attached, detached or
        re-mixed, and only the floats change per iteration.
        """
        sim = self._sim
        cached = self._rate_context_cache
        if cached is not None and cached[0] == sim._workloads_version:
            return cached[1], cached[2]
        rate_rows: dict[str, list[float]] = {}
        contribs = []
        op_index = _OP_SLOT
        for name, binding in sim.bindings.items():
            entries = []
            for region_id, units in binding.unit_rates():
                row = rate_rows.get(region_id)
                if row is None:
                    row = rate_rows[region_id] = [0.0, 0.0, 0.0, 0.0, 0.0]
                entries.append(
                    (
                        region_id,
                        row,
                        [(op, op_index[op], unit) for op, unit in units],
                    )
                )
            contribs.append((name, entries))
        self._rate_context_cache = (sim._workloads_version, rate_rows, contribs)
        return rate_rows, contribs

    def _solve_scalar(self, compaction_bg: dict[str, float]) -> SolveResult:
        sim = self._sim
        bindings = sim.bindings
        throughputs = {
            name: sim._binding_throughput.get(name, binding.threads * 50.0)
            for name, binding in bindings.items()
        }
        rate_rows, contribs = self._tick_rate_context()
        node_context = [
            (
                name,
                evaluator,
                [rate_rows.get(rid) for rid in evaluator.region_ids],
                compaction_bg.get(name, 0.0),
            )
            for name, evaluator in self._tick_node_context()
        ]
        # Region -> hosting node is tick-constant; bindings aggregate
        # latencies per *node* instead of per region.
        region_node: dict[str, str] = {}
        for name, evaluator, _, _ in node_context:
            for region_id in evaluator.region_ids:
                region_node[region_id] = name
        binding_terms = {
            name: (
                [
                    (weight, region_node.get(region_id))
                    for region_id, weight in binding.region_weights.items()
                ],
                list(binding.op_mix.items()),
            )
            for name, binding in bindings.items()
        }
        rate_values = list(rate_rows.values())
        node_latencies: dict[str, dict[str, float]] = {}

        zeros = _ZERO_RATES

        def fill_rates() -> None:
            for row in rate_values:
                row[:] = zeros
            for name, entries in contribs:
                throughput = throughputs[name]
                for _, row, slot_units in entries:
                    for _, slot, unit in slot_units:
                        row[slot] += throughput * unit

        def evaluate_latencies() -> None:
            node_latencies.clear()
            for name, evaluator, refs, background in node_context:
                node_latencies[name] = evaluator.latencies(refs, background)

        def binding_latency(terms, mix, latencies_by_node) -> float:
            # Same math as WorkloadBinding.mean_latency: the per-region
            # latency dict is the hosting node's, so the per-op mix dot
            # product is computed once per node and reused per region.
            cache: dict[str, float] = {}
            total = 0.0
            for weight, node_name in terms:
                if node_name is None:
                    # Region currently unavailable (node restarting):
                    # requests block and retry, modelled as a large latency.
                    total += weight * UNAVAILABLE_MS
                    continue
                mixed = cache.get(node_name)
                if mixed is None:
                    latencies = latencies_by_node[node_name]
                    mixed = 0.0
                    for op, fraction in mix:
                        mixed += fraction * latencies.get(op, 1.0)
                    cache[node_name] = mixed
                total += weight * mixed
            return total

        if bindings:
            for _ in range(FIXED_POINT_MAX_ITERATIONS):
                fill_rates()
                evaluate_latencies()
                converged = True
                for name, binding in bindings.items():
                    terms, mix = binding_terms[name]
                    latency = binding_latency(terms, mix, node_latencies)
                    if _damp(throughputs, name, binding.max_throughput(latency)):
                        converged = False
                if converged:
                    break

        fill_rates()
        node_results: dict[str, object] = {}
        node_scale: dict[str, float] = {}
        for name, evaluator, refs, background in node_context:
            result = evaluator.evaluate_rates(refs, background)
            node_results[name] = result
            node_scale[name] = (
                1.0 if result.utilization <= 1.0 else 1.0 / result.utilization
            )

        # Per-binding latency at the *final* state, from the full node
        # results (same latency dicts the intermediate iterations used).
        final_latencies = {
            name: result.per_op_latency_ms for name, result in node_results.items()
        }
        binding_latencies = {
            name: binding_latency(*binding_terms[name], final_latencies)
            for name in bindings
        }

        achieved, region_rates = self._achieved(throughputs, region_node, node_scale)
        summaries = binding_summaries(bindings, region_node, final_latencies)
        return achieved, node_results, region_rates, binding_latencies, summaries

    def _achieved(
        self,
        throughputs: dict[str, float],
        region_node: dict[str, str],
        node_scale: dict[str, float],
    ) -> tuple[dict[str, float], dict[str, dict[str, float]]]:
        """Per-binding achieved throughput and per-region achieved rates:
        the converged offered load, scaled down on saturated nodes."""
        _, contribs = self._tick_rate_context()
        achieved: dict[str, float] = {}
        region_rates: dict[str, dict[str, float]] = {}
        for name, entries in contribs:
            throughput = throughputs[name]
            total = 0.0
            for region_id, _, slot_units in entries:
                scale = node_scale.get(region_node.get(region_id), 0.0)
                bucket = region_rates.setdefault(region_id, {})
                load_total = 0.0
                for op, _, unit in slot_units:
                    rate = throughput * unit
                    bucket[op] = bucket.get(op, 0.0) + rate * scale
                    load_total += rate
                total += load_total * scale
            achieved[name] = total
        return achieved, region_rates

    # -- vector loop ----------------------------------------------------- #
    def _vector_context(self) -> _VectorContext | None:
        sig = self._signature()
        ctx = self._vector_ctx
        if ctx is None or self._vector_sig != sig:
            ctx = self._build_vector_context()
            self._vector_ctx = ctx
            self._vector_sig = sig
        if ctx is not None:
            self._refresh_vector(ctx)
        return ctx

    def _build_vector_context(self) -> _VectorContext | None:
        sim = self._sim
        regions: list = []
        node_names: list[str] = []
        empty_nodes: list[str] = []
        offsets: list[int] = []
        for node in sim.nodes.values():
            if not node.online:
                continue
            hosted = sim.regions_on(node.name)
            if hosted:
                node_names.append(node.name)
                offsets.append(len(regions))
                regions.extend(hosted)
            else:
                empty_nodes.append(node.name)
        region_count = len(regions)
        node_count = len(node_names)
        if region_count == 0 or node_count == 0:
            return None

        ctx = _VectorContext()
        ctx.regions = regions
        ctx.node_names = node_names
        ctx.empty_nodes = empty_nodes
        ctx.offsets = np.array(offsets, dtype=np.intp)

        cache_eff = np.empty(node_count)
        cpu_budget = np.empty(node_count)
        iops_budget = np.empty(node_count)
        bytes_budget = np.empty(node_count)
        net_budget = np.empty(node_count)
        disk_ms = np.empty(node_count)
        blocks0 = np.empty(node_count)
        scan_len0 = np.empty(node_count)
        cache_bytes_mem = np.empty(node_count)
        memstore = np.empty(node_count)
        heap_bytes = np.empty(node_count)
        memory_bytes = np.empty(node_count)
        amp_node = np.empty(node_count)
        block_node = np.empty(node_count)
        for index, name in enumerate(node_names):
            node = sim.nodes[name]
            hardware = node.hardware
            config = node.config
            heap = hardware.heap_bytes
            cache_bytes_mem[index] = config.block_cache_bytes(heap)
            cache_eff[index] = CACHE_EFFICIENCY * cache_bytes_mem[index]
            cpu_budget[index] = hardware.cpu_millis_per_second
            iops_budget[index] = hardware.disk_iops
            bytes_budget[index] = hardware.disk_mb_per_second * MB
            net_budget[index] = hardware.network_mb_per_second * MB
            disk_ms[index] = 1000.0 / hardware.disk_iops
            memstore[index] = max(config.memstore_bytes(heap), 1)
            heap_bytes[index] = heap
            memory_bytes[index] = hardware.memory_bytes
            amp_node[index] = WRITE_AMP_BASE + WRITE_AMP_MEMSTORE_FACTOR * (
                MEMSTORE_REFERENCE_FRACTION / max(config.memstore_fraction, 0.01)
            )
            block_node[index] = config.block_size_bytes
            # Latency statics key on the node's first hosted region, exactly
            # as PerformanceModel._latencies does.
            first = regions[offsets[index]]
            scan_len0[index] = first.scan_length
            blocks0[index] = (
                max(1.0, first.scan_length * first.record_size / config.block_size_bytes)
                + 1.0
            )
        ctx.cache_eff = cache_eff
        ctx.cpu_budget = cpu_budget
        ctx.iops_budget = iops_budget
        ctx.bytes_budget = bytes_budget
        ctx.net_budget = net_budget
        ctx.disk_ms = disk_ms
        ctx.blocks0 = blocks0
        ctx.scan_len0 = scan_len0
        ctx.cache_bytes_mem = cache_bytes_mem
        ctx.memstore = memstore
        ctx.heap_bytes = heap_bytes
        ctx.memory_bytes = memory_bytes
        ctx.background = np.zeros(node_count)

        counts = np.diff(np.append(ctx.offsets, region_count))
        node_idx = np.repeat(np.arange(node_count, dtype=np.intp), counts)
        ctx.node_idx = node_idx
        ctx.region_node = {
            region.region_id: node_names[node_idx[row]]
            for row, region in enumerate(regions)
        }

        record_size = np.fromiter(
            (r.record_size for r in regions), dtype=np.float64, count=region_count
        )
        scan_length = np.fromiter(
            (r.scan_length for r in regions), dtype=np.float64, count=region_count
        )
        ctx.hot_frac = np.fromiter(
            (r.hot_data_fraction for r in regions), dtype=np.float64, count=region_count
        )
        ctx.hot_req_frac = np.fromiter(
            (r.hot_request_fraction for r in regions),
            dtype=np.float64,
            count=region_count,
        )
        blockR = block_node[node_idx]
        ampR = amp_node[node_idx]
        memstoreR = memstore[node_idx]
        scan_bytes = scan_length * record_size
        blocksR = np.maximum(1.0, scan_bytes / blockR) + 1.0
        ctx.blockR = blockR
        ctx.blocksR = blocksR
        ctx.w_cpu = (
            CPU_RPC_OVERHEAD_MS
            + CPU_WRITE_MS
            + CPU_WRITE_COMPACTION_MS_PER_AMP * ampR
        )
        ctx.w_iops = record_size / memstoreR * 400.0
        ctx.w_bytes = record_size * ampR
        ctx.w_net = record_size
        ctx.s_cpu = (
            CPU_RPC_OVERHEAD_MS
            + CPU_SCAN_SETUP_MS
            + CPU_SCAN_PER_RECORD_MS * scan_length
            + CPU_SCAN_PER_BLOCK_MS * blocksR
        )
        ctx.s_net0 = scan_bytes
        ctx.s_bytes = blocksR * blockR

        row_index = {region.region_id: row for row, region in enumerate(regions)}
        binding_fill = []
        binding_terms = []
        mixes = []
        for name, binding in sim.bindings.items():
            fill_rows: list[int] = []
            fill_units: list[list[float]] = []
            for region_id, units in binding.unit_rates():
                row = row_index.get(region_id)
                if row is None:
                    continue  # unhosted region: contributes no demand
                unit_row = [0.0] * 5
                for op, unit in units:
                    unit_row[_OP_SLOT[op]] += unit
                fill_rows.append(row)
                fill_units.append(unit_row)
            binding_fill.append(
                (
                    name,
                    np.array(fill_rows, dtype=np.intp),
                    np.array(fill_units, dtype=np.float64).reshape(len(fill_rows), 5),
                )
            )
            weights: list[float] = []
            term_nodes: list[int] = []
            for region_id, weight in binding.region_weights.items():
                weights.append(weight)
                row = row_index.get(region_id)
                # Column N of the latency matrix is the unavailable-region
                # sentinel (500 ms across every op).
                term_nodes.append(node_idx[row] if row is not None else node_count)
            mix = [0.0] * 5
            for op, fraction in binding.op_mix.items():
                mix[_OP_SLOT[op]] = fraction
            mixes.append(mix)
            binding_terms.append(
                (
                    name,
                    np.array(weights, dtype=np.float64),
                    np.array(term_nodes, dtype=np.intp),
                    binding,
                )
            )
        ctx.binding_fill = binding_fill
        ctx.binding_terms = binding_terms
        ctx.mix_matrix = np.array(mixes, dtype=np.float64).reshape(len(mixes), 5)
        ctx.rates = np.zeros((region_count, 5))
        return ctx

    def _refresh_vector(self, ctx: _VectorContext) -> None:
        """Re-sync the size/locality-dependent columns from live regions."""
        from repro.simulation.cluster import REMOTE_LOCALITY  # avoid import cycle

        regions = ctx.regions
        count = len(regions)
        sizes = np.fromiter(
            (r.size_bytes for r in regions), dtype=np.float64, count=count
        )
        ctx.sizes = sizes
        ctx.hot_bytes = sizes * ctx.hot_frac
        ctx.cold_bytes = sizes * (1.0 - ctx.hot_frac)
        # Grouping is by hosting node, so region.node is that node's name;
        # inlining the locality property avoids R python attribute dances.
        loc = np.fromiter(
            (
                1.0 if r.node in r.block_homes else REMOTE_LOCALITY
                for r in regions
            ),
            dtype=np.float64,
            count=count,
        )
        ctx.loc = loc
        remote = 1.0 - loc
        ctx.r_iops = 1.0 + remote * REMOTE_READ_IOPS_FACTOR
        ctx.r_netm = remote * ctx.blockR
        ctx.s_iops = ctx.blocksR * (1.0 + remote * REMOTE_READ_IOPS_FACTOR)
        ctx.s_netm = remote * ctx.s_bytes

    def _vector_pass(self, ctx: _VectorContext, throughputs: dict[str, float]):
        """One demand+latency evaluation over the whole cluster.

        Returns ``(lat, node_arrays)`` where ``lat`` is the (5, N+1) per-op
        latency matrix (column N = unavailable sentinel) and ``node_arrays``
        holds the per-node aggregates the final pass turns into
        :class:`NodeLoadResult` objects.
        """
        rates = ctx.rates
        rates[:] = 0.0
        for name, rows, units in ctx.binding_fill:
            throughput = throughputs[name]
            if throughput and len(rows):
                rates[rows] += throughput * units
        read = rates[:, 0]
        update = rates[:, 1]
        insert = rates[:, 2]
        scan = rates[:, 3]
        rmw = rates[:, 4]
        read_like = read + rmw
        write = update + insert + rmw
        rr = read_like + scan
        tot = read + update + insert + scan + rmw

        cpu_r = read_like * _R_CPU_BASE + write * ctx.w_cpu + scan * ctx.s_cpu
        iops_r = write * ctx.w_iops
        bytes_r = write * ctx.w_bytes
        net_r = write * ctx.w_net + scan * ctx.s_net0
        m_cpu_r = read_like * _R_CPU_MISS_DELTA
        m_iops_r = read_like * ctx.r_iops + scan * ctx.s_iops
        m_bytes_r = read_like * ctx.blockR + scan * ctx.s_bytes
        m_net_r = read_like * ctx.r_netm + scan * ctx.s_netm
        mask = rr > 0.0
        hot_r = np.where(mask, ctx.hot_bytes, 0.0)
        cold_r = np.where(mask, ctx.cold_bytes, 0.0)
        hotreq_r = ctx.hot_req_frac * rr
        loc_r = ctx.loc * tot

        stacked = np.stack(
            (
                cpu_r,
                iops_r,
                bytes_r,
                net_r,
                m_cpu_r,
                m_iops_r,
                m_bytes_r,
                m_net_r,
                hot_r,
                cold_r,
                rr,
                hotreq_r,
                tot,
                loc_r,
            )
        )
        sums = np.add.reduceat(stacked, ctx.offsets, axis=1)
        (
            cpu_s,
            iops_s,
            bytes_s,
            net_s,
            m_cpu_s,
            m_iops_s,
            m_bytes_s,
            m_net_s,
            hot_n,
            cold_n,
            rr_n,
            hotreq_n,
            tot_n,
            loc_n,
        ) = sums

        rr_safe = np.where(rr_n > 0.0, rr_n, 1.0)
        hot_safe = np.where(hot_n > 0.0, hot_n, 1.0)
        cold_safe = np.where(cold_n > 0.0, cold_n, 1.0)
        hot_req_share = hotreq_n / rr_safe
        hot_cov = np.minimum(1.0, ctx.cache_eff / hot_safe)
        spare = np.maximum(0.0, ctx.cache_eff - hot_n)
        cold_cov = np.where(
            cold_n > 0.0, np.minimum(1.0, spare / cold_safe), 1.0
        )
        hit = np.where(
            (rr_n > 0.0) & (hot_n > 0.0),
            hot_req_share * hot_cov + (1.0 - hot_req_share) * cold_cov,
            1.0,
        )
        miss = np.maximum(0.0, 1.0 - hit)

        cpu_n = cpu_s + miss * m_cpu_s
        iops_n = iops_s + miss * m_iops_s
        bytes_n = bytes_s + miss * m_bytes_s + ctx.background
        net_n = net_s + miss * m_net_s
        cpu_util = cpu_n / ctx.cpu_budget
        iops_util = iops_n / ctx.iops_budget
        bw_util = bytes_n / ctx.bytes_budget
        io_wait = np.maximum(iops_util, bw_util)
        net_util = net_n / ctx.net_budget
        util = np.maximum(cpu_util, np.maximum(io_wait, net_util))
        tot_safe = np.where(tot_n > 0.0, tot_n, 1.0)
        mean_loc = np.where(tot_n > 0.0, loc_n / tot_safe, 1.0)

        rho = util / (1.0 + util)
        inflation = 1.0 / (1.0 - np.minimum(rho, 0.97))
        read_ms = (
            CPU_READ_HIT_MS * hit
            + miss * (CPU_READ_MISS_MS + ctx.disk_ms)
            + CPU_RPC_OVERHEAD_MS
        )
        write_ms = CPU_WRITE_MS + CPU_RPC_OVERHEAD_MS + 0.2
        scan_ms = (
            CPU_SCAN_SETUP_MS
            + CPU_SCAN_PER_RECORD_MS * ctx.scan_len0
            + CPU_SCAN_PER_BLOCK_MS * ctx.blocks0
            + miss * ctx.blocks0 * ctx.disk_ms * 0.5
        )
        remote_n = 1.0 - mean_loc
        factor = 1.0 + remote_n * (REMOTE_READ_LATENCY_FACTOR - 1.0) * miss
        read_ms = read_ms * factor
        scan_ms = scan_ms * factor

        node_count = len(ctx.node_names)
        lat = np.empty((5, node_count + 1))
        lat[:, node_count] = UNAVAILABLE_MS
        lat[0, :node_count] = read_ms * inflation
        lat[1, :node_count] = write_ms * inflation
        lat[2, :node_count] = lat[1, :node_count]
        lat[3, :node_count] = scan_ms * inflation
        lat[4, :node_count] = (read_ms + write_ms) * inflation
        node_arrays = (
            util,
            cpu_util,
            io_wait,
            net_util,
            cpu_n,
            iops_n,
            bytes_n,
            net_n,
            hit,
        )
        return lat, node_arrays

    def _solve_vector(self, compaction_bg: dict[str, float]) -> SolveResult:
        sim = self._sim
        ctx = self._vector_context()
        if ctx is None:
            return self._solve_scalar(compaction_bg)
        bg = ctx.background
        for index, name in enumerate(ctx.node_names):
            bg[index] = compaction_bg.get(name, 0.0)

        bindings = sim.bindings
        throughputs = {
            name: sim._binding_throughput.get(name, binding.threads * 50.0)
            for name, binding in bindings.items()
        }
        if bindings:
            for _ in range(FIXED_POINT_MAX_ITERATIONS):
                lat, _ = self._vector_pass(ctx, throughputs)
                mixed = ctx.mix_matrix @ lat
                converged = True
                for position, (name, weights, term_nodes, binding) in enumerate(
                    ctx.binding_terms
                ):
                    latency = float(weights @ mixed[position, term_nodes])
                    if _damp(throughputs, name, binding.max_throughput(latency)):
                        converged = False
                if converged:
                    break

        lat, node_arrays = self._vector_pass(ctx, throughputs)
        (util, cpu_util, io_wait, net_util, cpu_n, iops_n, bytes_n, net_n, hit) = (
            node_arrays
        )
        hosted_n = np.add.reduceat(ctx.sizes, ctx.offsets)
        used = (
            np.minimum(ctx.cache_bytes_mem, hosted_n * 0.6)
            + ctx.memstore * 0.5
            + 0.6 * ctx.heap_bytes * 0.2
        )
        mem_util = np.minimum(
            1.0,
            (used + 0.5 * (ctx.memory_bytes - ctx.heap_bytes)) / ctx.memory_bytes,
        )

        node_results: dict[str, object] = {}
        node_scale: dict[str, float] = {}
        for index, name in enumerate(ctx.node_names):
            cpu_value = float(cpu_util[index])
            io_value = float(io_wait[index])
            net_value = float(net_util[index])
            util_value = float(util[index])
            node_results[name] = NodeLoadResult(
                utilization=util_value,
                cpu_utilization=cpu_value,
                io_wait=io_value,
                memory_utilization=float(mem_util[index]),
                network_utilization=net_value,
                demand=ServiceDemand(
                    cpu_millis=float(cpu_n[index]),
                    disk_iops=float(iops_n[index]),
                    disk_bytes=float(bytes_n[index]),
                    network_bytes=float(net_n[index]),
                ),
                hit_ratio=float(hit[index]),
                per_op_latency_ms={
                    "read": float(lat[0, index]),
                    "update": float(lat[1, index]),
                    "insert": float(lat[2, index]),
                    "scan": float(lat[3, index]),
                    "read_modify_write": float(lat[4, index]),
                },
                bottleneck=_bottleneck(cpu_value, io_value, net_value),
            )
            node_scale[name] = (
                1.0 if util_value <= 1.0 else 1.0 / util_value
            )
        # Online nodes with no hosted regions (drained, freshly booted):
        # fall back to the exact model (cheap -- empty region list).
        for name in ctx.empty_nodes:
            node = sim.nodes.get(name)
            if node is None or not node.online:
                continue
            result = sim._model_for(node).evaluate_node(
                node.config, [], compaction_bg.get(name, 0.0)
            )
            node_results[name] = result
            node_scale[name] = (
                1.0 if result.utilization <= 1.0 else 1.0 / result.utilization
            )

        mixed = ctx.mix_matrix @ lat
        binding_latencies = {
            name: float(weights @ mixed[position, term_nodes])
            for position, (name, weights, term_nodes, _binding) in enumerate(
                ctx.binding_terms
            )
        }

        region_node = ctx.region_node
        achieved, region_rates = self._achieved(throughputs, region_node, node_scale)
        # The NodeLoadResult latency dicts above are built from the same
        # ``lat`` matrix the scalar loop would produce, so the summary
        # helper sees identical floats on both loops.
        summaries = binding_summaries(
            bindings,
            region_node,
            {name: result.per_op_latency_ms for name, result in node_results.items()},
        )
        return achieved, node_results, region_rates, binding_latencies, summaries
