"""The fixed-point solver of :class:`ClusterSimulator`.

The simulator's tick loop needs, per tick, the closed-loop throughput fixed
point: per-binding achieved throughput, per-node model results, per-region
achieved rates, per-binding mean latency and per-binding latency
distribution summaries.  :class:`EventSolver` produces it:

* *solution reuse*: a tick-stable, insert-free fixed point is replayed
  verbatim until a dirty flag (any simulator mutation), a background-I/O
  change or an internal event invalidates it;
* real solves run one of two inner loops, picked by cluster size, over one
  coefficient source: the memoised per-node :class:`NodeEvaluator`
  contexts.  The *scalar* loop evaluates each node through its evaluator
  over slot-indexed rate rows; the *vector* loop is a columnar view of the
  same evaluators -- their per-region rows stacked into contiguous numpy
  columns grouped by node -- so one ``np.add.reduceat`` aggregates all
  nodes per fixed-point iteration.  Array set-up dominates small clusters,
  so the vector loop runs from :data:`VECTOR_MIN_REGIONS` regions up; the
  two agree to float rounding.

The solver shares the simulator's topology caches (region index,
assignment versions); its private state (evaluator memos, rate contexts,
the cached solution) is dropped through :meth:`EventSolver.invalidate` /
:meth:`EventSolver.forget_node`, which every simulator mutator calls, and
the vector context and latency-summary terms are rebuilt whenever the
(workloads, structure) signature moves.
"""

from __future__ import annotations

import numpy as np

from repro.simulation.latency import LatencySummary, bin_index, quantise_weight
from repro.simulation.perfmodel import (
    CPU_READ_HIT_MS,
    CPU_READ_MISS_MS,
    CPU_RPC_OVERHEAD_MS,
    CPU_SCAN_PER_BLOCK_MS,
    CPU_SCAN_PER_RECORD_MS,
    CPU_SCAN_SETUP_MS,
    CPU_WRITE_MS,
    NodeEvaluator,
    NodeLoadResult,
    OP_TYPES,
    REMOTE_READ_LATENCY_FACTOR,
    ROW_HOT_DATA_FRACTION,
    ROW_HOT_REQUEST_FRACTION,
    ROW_LOCALITY,
    ROW_READ_CPU,
    ROW_READ_MISS_BYTES,
    ROW_READ_MISS_CPU,
    ROW_READ_MISS_IOPS,
    ROW_READ_MISS_NET,
    ROW_SCAN_CPU,
    ROW_SCAN_MISS_BYTES,
    ROW_SCAN_MISS_IOPS,
    ROW_SCAN_MISS_NET,
    ROW_SCAN_NET,
    ROW_WRITE_BYTES,
    ROW_WRITE_CPU,
    ROW_WRITE_IOPS,
    ROW_WRITE_NET,
    ServiceDemand,
    bottleneck_resource,
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

#: Per-node :class:`NodeEvaluator` fields the vector loop stacks into
#: length-N arrays, each kept in the :class:`_VectorContext` slot of the
#: same name.
_NODE_FIELDS = (
    "cache_eff_bytes",
    "cpu_budget",
    "disk_iops_budget",
    "disk_bytes_budget",
    "network_bytes_budget",
    "disk_ms",
    "blocks0",
    "scan_length0",
)

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


#: Per-binding latency-atom counts at one (workloads, structure) signature:
#: ``(binding, [(hosting node or None, [(op, count), ...]), ...])``.
SummaryTerms = list[tuple[str, list[tuple[str | None, list[tuple[str, int]]]]]]


def summary_terms(bindings: dict, region_node: dict[str, str | None]) -> SummaryTerms:
    """The quantised ``region_weight * op_fraction`` counts of every binding.

    They depend only on the bindings and the region->node map, i.e. on the
    (workloads, structure) signature, so the solver computes them once per
    signature instead of per solve.  Counts of one binding's regions on
    the same node are summed here: integer addition is exact, so the
    summaries built from the sums are identical to per-region recording.
    A region with no hosting node maps to ``None`` (the unavailable bin).
    """
    terms: SummaryTerms = []
    for name, binding in bindings.items():
        mix = binding.op_mix.items()
        by_node: dict[str | None, dict[str, int]] = {}
        for region_id, weight in binding.region_weights.items():
            ops = by_node.setdefault(region_node.get(region_id), {})
            for op, fraction in mix:
                count = quantise_weight(weight * fraction)
                if count:
                    ops[op] = ops.get(op, 0) + count
        terms.append((name, [(node, list(ops.items())) for node, ops in by_node.items() if ops]))
    return terms


def binding_summaries(
    terms: SummaryTerms,
    node_latencies: dict[str, dict[str, float]],
) -> dict[str, LatencySummary]:
    """Per-binding latency distributions at one solved fixed point.

    Shared by both inner loops (and the test oracle) so the distribution
    channel cannot drift between them: each hands over its
    :func:`summary_terms` and its final per-node per-op latency dicts.  The
    atoms recorded here are exactly the ``region_weight * op_fraction``
    terms of the scalar mean -- the summary's weighted mean and
    ``binding_latency`` agree by construction, while the summary keeps the
    shape the mean throws away.

    Latencies are binned once per node (every region of a node shares its
    latency dict), so a solve costs O(nodes * ops) binning plus one integer
    addition per (binding, node, op) term.
    """
    node_bins: dict[str, dict[str, int]] = {}
    sentinel_bin = bin_index(UNAVAILABLE_MS)
    fallback_bin = bin_index(1.0)  # unknown op: binding_latency's 1.0 ms default
    summaries: dict[str, LatencySummary] = {}
    for name, by_node in terms:
        summary = LatencySummary()
        counts = summary.counts
        for node_name, op_counts in by_node:
            if node_name is None:
                for _, count in op_counts:
                    counts[sentinel_bin] = counts.get(sentinel_bin, 0) + count
                continue
            bins = node_bins.get(node_name)
            if bins is None:
                bins = node_bins[node_name] = {
                    op: bin_index(value)
                    for op, value in node_latencies[node_name].items()
                }
            for op, count in op_counts:
                index = bins.get(op, fallback_bin)
                counts[index] = counts.get(index, 0) + count
        summaries[name] = summary
    return summaries


def _fixed_point(bindings: dict, throughputs: dict[str, float], latencies) -> None:
    """The damped closed-loop iteration, shared by both inner loops.

    ``latencies()`` evaluates every binding's mean latency at the current
    ``throughputs``; each binding then moves halfway towards the throughput
    that latency allows, until no binding moves by more than
    :data:`FIXED_POINT_TOLERANCE` (relative) or
    :data:`FIXED_POINT_MAX_ITERATIONS` is reached.
    """
    if not bindings:
        return
    for _ in range(FIXED_POINT_MAX_ITERATIONS):
        current = latencies()
        converged = True
        for name, binding in bindings.items():
            previous = throughputs[name]
            updated = 0.5 * previous + 0.5 * binding.max_throughput(current[name])
            throughputs[name] = updated
            if abs(updated - previous) > FIXED_POINT_TOLERANCE * max(
                abs(previous), abs(updated), 1.0
            ):
                converged = False
        if converged:
            break


def _throttle(utilization: float) -> float:
    """Share of its offered load a node serves: all of it until saturated
    (work conservation clamps achieved throughput to capacity)."""
    return 1.0 if utilization <= 1.0 else 1.0 / utilization


class _VectorContext:
    """Columnar view of the memoised :class:`NodeEvaluator` contexts.

    Built from the online nodes' evaluators once per (workloads, structure)
    signature.  Regions are laid out contiguously grouped by hosting node
    (nodes in simulator insertion order, regions in each evaluator's
    ``region_ids`` order) so ``np.add.reduceat`` over ``offsets`` yields
    per-node sums in exactly the order the scalar loop accumulates them;
    ``coeffs`` holds the evaluators' rows as ``(ROW_WIDTH, regions)``
    columns.  Within one signature only region sizes drift, so each solve
    refreshes just the size-dependent columns: locality, config, hardware
    and assignment changes all bump the signature.
    """

    __slots__ = (
        "regions",
        "node_names",
        "empty_nodes",
        "offsets",
        "region_node",
        # per-node evaluator fields (length N)
        *_NODE_FIELDS,
        # per-region evaluator rows (ROW_WIDTH x R)
        "coeffs",
        # size-dependent columns, refreshed every solve
        "hot_bytes",
        "cold_bytes",
        "hosted_bytes",
        # workload structures
        "binding_fill",
        "binding_terms",
        "mix_matrix",
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
        self._summary_terms: SummaryTerms = []
        self._summary_sig: tuple[int, int] | None = None

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

    def _binding_summary_terms(self, region_node: dict[str, str]) -> SummaryTerms:
        """:func:`summary_terms`, recomputed only when the signature moves."""
        sig = self._signature()
        if self._summary_sig != sig:
            self._summary_terms = summary_terms(self._sim.bindings, region_node)
            self._summary_sig = sig
        return self._summary_terms

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
            results = self._solve_vector(compaction_bg, dict(seeds))
        else:
            results = self._solve_scalar(compaction_bg, dict(seeds))

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

    def _solve_scalar(
        self, compaction_bg: dict[str, float], throughputs: dict[str, float]
    ) -> SolveResult:
        bindings = self._sim.bindings
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
        zeros = _ZERO_RATES

        def fill_rates() -> None:
            for row in rate_values:
                row[:] = zeros
            for name, entries in contribs:
                throughput = throughputs[name]
                for _, row, slot_units in entries:
                    for _, slot, unit in slot_units:
                        row[slot] += throughput * unit

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

        def latencies() -> dict[str, float]:
            fill_rates()
            by_node = {
                name: evaluator.latencies(refs, background)
                for name, evaluator, refs, background in node_context
            }
            return {name: binding_latency(*binding_terms[name], by_node) for name in bindings}

        _fixed_point(bindings, throughputs, latencies)

        fill_rates()
        node_results: dict[str, object] = {}
        node_scale: dict[str, float] = {}
        for name, evaluator, refs, background in node_context:
            result = evaluator.evaluate_rates(refs, background)
            node_results[name] = result
            node_scale[name] = _throttle(result.utilization)

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
        summaries = binding_summaries(
            self._binding_summary_terms(region_node), final_latencies
        )
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
        """The columnar view for this solve (``None`` when nothing is hosted).

        Rebuilt from the evaluators when the (workloads, structure)
        signature changes; otherwise only the size-dependent columns are
        refreshed, since inserts grow regions every tick.
        """
        sig = self._signature()
        if self._vector_ctx is None or self._vector_sig != sig:
            self._vector_ctx = self._build_vector_context()
            self._vector_sig = sig
        ctx = self._vector_ctx
        if ctx is not None:
            sizes = np.fromiter(
                (region.size_bytes for region in ctx.regions),
                dtype=np.float64,
                count=len(ctx.regions),
            )
            hot_fraction = ctx.coeffs[ROW_HOT_DATA_FRACTION]
            ctx.hot_bytes = sizes * hot_fraction
            ctx.cold_bytes = sizes * (1.0 - hot_fraction)
            ctx.hosted_bytes = np.add.reduceat(sizes, ctx.offsets)
        return ctx

    def _build_vector_context(self) -> _VectorContext | None:
        sim = self._sim
        regions: list = []
        node_names: list[str] = []
        empty_nodes: list[str] = []
        offsets: list[int] = []
        evaluators: list[NodeEvaluator] = []
        for name, evaluator in self._tick_node_context():
            if not evaluator.region_ids:
                empty_nodes.append(name)
                continue
            node_names.append(name)
            offsets.append(len(regions))
            regions.extend(sim.regions_on(name))
            evaluators.append(evaluator)
        if not regions:
            return None
        region_count = len(regions)
        node_count = len(node_names)

        ctx = _VectorContext()
        ctx.regions = regions
        ctx.node_names = node_names
        ctx.empty_nodes = empty_nodes
        ctx.offsets = np.array(offsets, dtype=np.intp)
        for field in _NODE_FIELDS:
            values = [getattr(evaluator, field) for evaluator in evaluators]
            setattr(ctx, field, np.array(values, dtype=np.float64))
        rows = [row for evaluator in evaluators for row in evaluator.rows]
        ctx.coeffs = np.ascontiguousarray(np.array(rows, dtype=np.float64).T)

        counts = np.diff(np.append(ctx.offsets, region_count))
        node_idx = np.repeat(np.arange(node_count, dtype=np.intp), counts)
        ctx.region_node = {
            region.region_id: node_names[node_idx[row]]
            for row, region in enumerate(regions)
        }

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
                (name, np.array(weights, dtype=np.float64), np.array(term_nodes, dtype=np.intp))
            )
        ctx.binding_fill = binding_fill
        ctx.binding_terms = binding_terms
        ctx.mix_matrix = np.array(mixes, dtype=np.float64).reshape(len(mixes), 5)
        return ctx

    def _vector_pass(
        self,
        ctx: _VectorContext,
        throughputs: dict[str, float],
        background: np.ndarray,
    ):
        """One demand+latency evaluation over the whole cluster.

        Returns ``(lat, node_arrays)`` where ``lat`` is the (5, N+1) per-op
        latency matrix (column N = unavailable sentinel) and ``node_arrays``
        holds the per-node aggregates the final pass turns into
        :class:`NodeLoadResult` objects.
        """
        rates = np.zeros((len(ctx.regions), 5))
        for name, rows, units in ctx.binding_fill:
            throughput = throughputs[name]
            if throughput and len(rows):
                rates[rows] += throughput * units
        read, update, insert, scan, rmw = rates.T  # OP_TYPES order
        read_like = read + rmw
        write = update + insert + rmw
        rr = read_like + scan
        tot = read + update + insert + scan + rmw

        coeffs = ctx.coeffs
        cpu_r = (
            read_like * coeffs[ROW_READ_CPU]
            + write * coeffs[ROW_WRITE_CPU]
            + scan * coeffs[ROW_SCAN_CPU]
        )
        iops_r = write * coeffs[ROW_WRITE_IOPS]
        bytes_r = write * coeffs[ROW_WRITE_BYTES]
        net_r = write * coeffs[ROW_WRITE_NET] + scan * coeffs[ROW_SCAN_NET]
        m_cpu_r = read_like * coeffs[ROW_READ_MISS_CPU]
        m_iops_r = (
            read_like * coeffs[ROW_READ_MISS_IOPS] + scan * coeffs[ROW_SCAN_MISS_IOPS]
        )
        m_bytes_r = (
            read_like * coeffs[ROW_READ_MISS_BYTES] + scan * coeffs[ROW_SCAN_MISS_BYTES]
        )
        m_net_r = (
            read_like * coeffs[ROW_READ_MISS_NET] + scan * coeffs[ROW_SCAN_MISS_NET]
        )
        mask = rr > 0.0
        hot_r = np.where(mask, ctx.hot_bytes, 0.0)
        cold_r = np.where(mask, ctx.cold_bytes, 0.0)
        hotreq_r = coeffs[ROW_HOT_REQUEST_FRACTION] * rr
        loc_r = coeffs[ROW_LOCALITY] * tot

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

        cache = ctx.cache_eff_bytes
        rr_safe = np.where(rr_n > 0.0, rr_n, 1.0)
        hot_safe = np.where(hot_n > 0.0, hot_n, 1.0)
        cold_safe = np.where(cold_n > 0.0, cold_n, 1.0)
        hot_req_share = hotreq_n / rr_safe
        hot_cov = np.minimum(1.0, cache / hot_safe)
        spare = np.maximum(0.0, cache - hot_n)
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
        bytes_n = bytes_s + miss * m_bytes_s + background
        net_n = net_s + miss * m_net_s
        cpu_util = cpu_n / ctx.cpu_budget
        iops_util = iops_n / ctx.disk_iops_budget
        bw_util = bytes_n / ctx.disk_bytes_budget
        io_wait = np.maximum(iops_util, bw_util)
        net_util = net_n / ctx.network_bytes_budget
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
            + CPU_SCAN_PER_RECORD_MS * ctx.scan_length0
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

    def _solve_vector(
        self, compaction_bg: dict[str, float], throughputs: dict[str, float]
    ) -> SolveResult:
        ctx = self._vector_context()
        if ctx is None:
            return self._solve_scalar(compaction_bg, throughputs)
        background = np.array(
            [compaction_bg.get(name, 0.0) for name in ctx.node_names],
            dtype=np.float64,
        )

        def binding_latencies_at(lat) -> dict[str, float]:
            mixed = ctx.mix_matrix @ lat
            return {
                name: float(weights @ mixed[position, term_nodes])
                for position, (name, weights, term_nodes) in enumerate(ctx.binding_terms)
            }

        bindings = self._sim.bindings
        _fixed_point(
            bindings,
            throughputs,
            lambda: binding_latencies_at(
                self._vector_pass(ctx, throughputs, background)[0]
            ),
        )

        lat, node_arrays = self._vector_pass(ctx, throughputs, background)
        (util, cpu_util, io_wait, net_util, cpu_n, iops_n, bytes_n, net_n, hit) = (
            node_arrays
        )
        memo = self._node_evaluators
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
                memory_utilization=memo[name][1].memory_utilization_at(
                    float(ctx.hosted_bytes[index])
                ),
                network_utilization=net_value,
                demand=ServiceDemand(
                    cpu_millis=float(cpu_n[index]),
                    disk_iops=float(iops_n[index]),
                    disk_bytes=float(bytes_n[index]),
                    network_bytes=float(net_n[index]),
                ),
                hit_ratio=float(hit[index]),
                per_op_latency_ms={
                    op: float(lat[slot, index]) for op, slot in _OP_SLOT.items()
                },
                bottleneck=bottleneck_resource(cpu_value, io_value, net_value),
            )
            node_scale[name] = _throttle(util_value)
        # Online nodes with no hosted regions (drained, freshly booted) go
        # through their own evaluator (cheap -- empty region list).
        for name in ctx.empty_nodes:
            result = memo[name][1].evaluate_rates([], compaction_bg.get(name, 0.0))
            node_results[name] = result
            node_scale[name] = _throttle(result.utilization)

        binding_latencies = binding_latencies_at(lat)
        region_node = ctx.region_node
        achieved, region_rates = self._achieved(throughputs, region_node, node_scale)
        # The NodeLoadResult latency dicts above are built from the same
        # ``lat`` matrix the scalar loop would produce, so the summary
        # helper sees identical floats on both loops.
        summaries = binding_summaries(
            self._binding_summary_terms(region_node),
            {name: result.per_op_latency_ms for name, result in node_results.items()},
        )
        return achieved, node_results, region_rates, binding_latencies, summaries
