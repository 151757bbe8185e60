"""The fixed-point solver of :class:`ClusterSimulator`.

The simulator's tick loop needs, per tick, the closed-loop throughput fixed
point: per-binding achieved throughput, per-node model results, per-region
achieved rates, per-binding mean latency and per-binding latency
distribution summaries.  :class:`EventSolver` produces it:

* *solution reuse*: a tick-stable, insert-free fixed point is replayed
  verbatim until a dirty flag (any simulator mutation) or a background-I/O
  change invalidates it;
* real solves run one of two inner loops, picked by cluster size, over one
  *solve context* per (workloads, structure) signature: the memoised
  per-node :class:`NodeEvaluator` coefficients, the per-region rate rows
  and per-binding unit rates, the region -> node map, the binding latency
  and summary terms.  The *scalar* loop evaluates each node through its
  evaluator over the rate rows; the *vector* loop is a columnar view of
  the same evaluators -- their per-region rows stacked into contiguous
  numpy columns grouped by node -- so one ``np.add.reduceat`` aggregates
  all nodes per fixed-point iteration.  Array set-up dominates small
  clusters, so the context carries that view only from
  :data:`VECTOR_MIN_REGIONS` regions up.  Both loops build node results
  through :meth:`NodeEvaluator.load_result` and per-op latencies through
  :func:`~repro.simulation.perfmodel.op_latencies`; they sum demand in a
  different association, so they agree to float rounding (see
  :class:`_VectorContext`).

The solver shares the simulator's topology caches (region index,
assignment versions).  Its private state is the evaluator memo, the solve
context and the cached solution: every simulator mutator drops the
solution through :meth:`EventSolver.invalidate` /
:meth:`EventSolver.forget_node`, and the context is rebuilt whenever the
signature moves.
"""

from __future__ import annotations

import numpy as np

from repro.simulation.latency import LatencySummary, bin_index, quantise_weight
from repro.simulation.perfmodel import (
    NodeEvaluator,
    OP_TYPES,
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
    op_latencies,
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
    """Columnar view of a solve context's :class:`NodeEvaluator` rows.

    Regions are laid out contiguously grouped by hosting node (nodes in
    simulator insertion order, regions in each evaluator's ``region_ids``
    order) so ``np.add.reduceat`` over ``offsets`` yields per-node sums;
    ``coeffs`` holds the evaluators' rows as ``(ROW_WIDTH, regions)``
    columns.  The sums take the scalar loop's terms in the same region
    order but associate them differently: each region's per-op products
    are added first and the background I/O last, where
    :meth:`NodeEvaluator._demand_pass` adds product by product and folds
    the background into the miss term.  The two loops therefore agree to
    float rounding, not bit for bit.  Within one signature only region
    sizes drift, so each solve refreshes just the size-dependent columns.
    """

    __slots__ = (
        "regions",
        # (name, evaluator) of the online nodes hosting regions / none
        "nodes",
        "empty_nodes",
        "offsets",
        # per-node evaluator fields (length N)
        *_NODE_FIELDS,
        # per-region evaluator rows (ROW_WIDTH x R)
        "coeffs",
        # size-dependent columns, refreshed every solve
        "hot_bytes",
        "cold_bytes",
        # workload structures
        "binding_fill",
        "binding_terms",
        "mix_matrix",
    )


class _SolveContext:
    """Everything a solve derives from one (workloads, structure) signature."""

    __slots__ = (
        "signature",
        # (name, evaluator, hosted regions, rate rows in region_ids order)
        # per online node; a rate row is None where no binding offers load
        "nodes",
        # one 5-slot offered-rate row (OP_TYPES order) per loaded region
        "rate_rows",
        # per binding: (name, [(region_id, rate row, [(op, slot, unit)])])
        "contribs",
        "region_node",
        # per binding: (name, [(weight, hosting node or None)], op mix)
        "binding_terms",
        "summary_terms",
        # the _VectorContext when the vector loop runs, else None
        "vector",
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
        self._context: _SolveContext | None = None
        self._cached: SolveResult | None = None
        self._cached_bg: dict[str, float] = {}
        self._cached_sig: tuple[int, int] | None = None
        self._cached_reusable = False

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

    def reuse(self, compaction_bg: dict[str, float]) -> SolveResult | None:
        """The cached solution if it is valid for this tick, else ``None``."""
        if (
            self._cached is None
            or not self._cached_reusable
            or self._cached_sig != self._signature()
            or compaction_bg != self._cached_bg
        ):
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
        ctx = self._solve_context()
        throughputs = dict(seeds)
        if ctx.vector is not None:
            node_results, binding_latencies = self._solve_vector(ctx, compaction_bg, throughputs)
        else:
            node_results, binding_latencies = self._solve_scalar(ctx, compaction_bg, throughputs)
        achieved, region_rates = self._achieved(ctx, throughputs, node_results)
        summaries = binding_summaries(
            ctx.summary_terms,
            {name: result.per_op_latency_ms for name, result in node_results.items()},
        )
        results = (achieved, node_results, region_rates, binding_latencies, summaries)

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

    # -- solve context ---------------------------------------------------- #
    def _solve_context(self) -> _SolveContext:
        """The context of the current signature, built on its first solve.

        Every mutator that changes what the context holds -- bindings and
        their mixes, topology, node state, config, hardware, assignment,
        locality -- bumps the signature; only region sizes drift within
        one, and each loop refreshes those per solve.
        """
        sig = self._signature()
        ctx = self._context
        if ctx is None or ctx.signature != sig:
            ctx = self._context = self._build_context(sig)
        return ctx

    def _build_context(self, signature: tuple[int, int]) -> _SolveContext:
        sim = self._sim
        ctx = _SolveContext()
        ctx.signature = signature
        rate_rows: dict[str, list[float]] = {}
        ctx.contribs = []
        for name, binding in sim.bindings.items():
            entries = []
            for region_id, units in binding.unit_rates():
                row = rate_rows.get(region_id)
                if row is None:
                    row = rate_rows[region_id] = [0.0, 0.0, 0.0, 0.0, 0.0]
                entries.append((region_id, row, [(op, _OP_SLOT[op], unit) for op, unit in units]))
            ctx.contribs.append((name, entries))
        ctx.rate_rows = list(rate_rows.values())

        memo = self._node_evaluators
        versions = sim._assignment_versions
        ctx.nodes = []
        ctx.region_node = {}
        for node in sim.nodes.values():
            if not node.online:
                continue
            name = node.name
            hosted = sim.regions_on(name)
            key = (node.config, node.hardware, versions.get(name, 0))
            cached = memo.get(name)
            if cached is not None and cached[0] == key:
                evaluator = cached[1]
            else:
                evaluator = NodeEvaluator(node.hardware, node.config, hosted)
                memo[name] = (key, evaluator)
            refs = [rate_rows.get(region_id) for region_id in evaluator.region_ids]
            ctx.nodes.append((name, evaluator, hosted, refs))
            for region_id in evaluator.region_ids:
                ctx.region_node[region_id] = name
        # Bindings aggregate latencies per hosting *node*, not per region.
        ctx.binding_terms = [
            (
                name,
                [
                    (weight, ctx.region_node.get(region_id))
                    for region_id, weight in binding.region_weights.items()
                ],
                list(binding.op_mix.items()),
            )
            for name, binding in sim.bindings.items()
        ]
        ctx.summary_terms = summary_terms(sim.bindings, ctx.region_node)
        ctx.vector = None
        if len(sim.regions) >= VECTOR_MIN_REGIONS:
            ctx.vector = self._build_vector(ctx)
        return ctx

    def _achieved(
        self,
        ctx: _SolveContext,
        throughputs: dict[str, float],
        node_results: dict[str, object],
    ) -> tuple[dict[str, float], dict[str, dict[str, float]]]:
        """Per-binding achieved throughput and per-region achieved rates:
        the converged offered load, scaled down on saturated nodes."""
        node_scale = {
            name: _throttle(result.utilization) for name, result in node_results.items()
        }
        region_node = ctx.region_node
        achieved: dict[str, float] = {}
        region_rates: dict[str, dict[str, float]] = {}
        for name, entries in ctx.contribs:
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

    # -- scalar loop ----------------------------------------------------- #
    def _solve_scalar(
        self,
        ctx: _SolveContext,
        compaction_bg: dict[str, float],
        throughputs: dict[str, float],
    ) -> tuple[dict[str, object], dict[str, float]]:
        """Node results and binding latencies at the fixed point, evaluating
        each node through its evaluator over the shared rate rows."""
        node_context = []
        for name, evaluator, hosted, refs in ctx.nodes:
            evaluator.refresh(hosted)
            node_context.append((name, evaluator, refs, compaction_bg.get(name, 0.0)))
        rate_values = ctx.rate_rows
        contribs = ctx.contribs
        zeros = _ZERO_RATES

        def fill_rates() -> None:
            for row in rate_values:
                row[:] = zeros
            for name, entries in contribs:
                throughput = throughputs[name]
                for _, row, slot_units in entries:
                    for _, slot, unit in slot_units:
                        row[slot] += throughput * unit

        def binding_latencies(latencies_by_node) -> dict[str, float]:
            # Same math as WorkloadBinding.mean_latency: the per-region
            # latency dict is the hosting node's, so the per-op mix dot
            # product is computed once per node and reused per region.
            latencies = {}
            for name, terms, mix in ctx.binding_terms:
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
                        by_op = latencies_by_node[node_name]
                        mixed = 0.0
                        for op, fraction in mix:
                            mixed += fraction * by_op.get(op, 1.0)
                        cache[node_name] = mixed
                    total += weight * mixed
                latencies[name] = total
            return latencies

        def latencies() -> dict[str, float]:
            fill_rates()
            return binding_latencies(
                {
                    name: evaluator.latencies(refs, background)
                    for name, evaluator, refs, background in node_context
                }
            )

        _fixed_point(self._sim.bindings, throughputs, latencies)

        fill_rates()
        node_results = {
            name: evaluator.evaluate_rates(refs, background)
            for name, evaluator, refs, background in node_context
        }
        # Per-binding latency at the *final* state, from the full node
        # results (same latency dicts the intermediate iterations used).
        return node_results, binding_latencies(
            {name: result.per_op_latency_ms for name, result in node_results.items()}
        )

    # -- vector loop ----------------------------------------------------- #
    def _build_vector(self, ctx: _SolveContext) -> _VectorContext | None:
        """The columnar view of ``ctx`` (``None`` when nothing is hosted),
        its binding structures derived from the scalar entries."""
        regions: list = []
        nodes: list[tuple[str, NodeEvaluator]] = []
        empty_nodes: list[tuple[str, NodeEvaluator]] = []
        offsets: list[int] = []
        for name, evaluator, hosted, _ in ctx.nodes:
            # The vector loop reads only sizes per solve, so it folds any
            # locality drift into the rows here, once per signature.
            evaluator.refresh(hosted)
            if not hosted:
                empty_nodes.append((name, evaluator))
                continue
            nodes.append((name, evaluator))
            offsets.append(len(regions))
            regions.extend(hosted)
        if not regions:
            return None

        vec = _VectorContext()
        vec.regions = regions
        vec.nodes = nodes
        vec.empty_nodes = empty_nodes
        vec.offsets = np.array(offsets, dtype=np.intp)
        for field in _NODE_FIELDS:
            values = [getattr(evaluator, field) for _, evaluator in nodes]
            setattr(vec, field, np.array(values, dtype=np.float64))
        rows = [row for _, evaluator in nodes for row in evaluator.rows]
        vec.coeffs = np.ascontiguousarray(np.array(rows, dtype=np.float64).T)

        row_index = {region.region_id: row for row, region in enumerate(regions)}
        vec.binding_fill = []
        for name, entries in ctx.contribs:
            fill_rows: list[int] = []
            fill_units: list[list[float]] = []
            for region_id, _, slot_units in entries:
                row = row_index.get(region_id)
                if row is None:
                    continue  # unhosted region: contributes no demand
                unit_row = [0.0] * 5
                for _, slot, unit in slot_units:
                    unit_row[slot] += unit
                fill_rows.append(row)
                fill_units.append(unit_row)
            vec.binding_fill.append(
                (
                    name,
                    np.array(fill_rows, dtype=np.intp),
                    np.array(fill_units, dtype=np.float64).reshape(len(fill_rows), 5),
                )
            )
        # Column N of the latency matrix is the unavailable-region sentinel
        # (500 ms across every op).
        node_index = {name: index for index, (name, _) in enumerate(nodes)}
        node_index[None] = len(nodes)
        vec.binding_terms = []
        mixes = []
        for name, terms, mix in ctx.binding_terms:
            vec.binding_terms.append(
                (
                    name,
                    np.array([weight for weight, _ in terms], dtype=np.float64),
                    np.array([node_index[node] for _, node in terms], dtype=np.intp),
                )
            )
            mix_row = [0.0] * 5
            for op, fraction in mix:
                mix_row[_OP_SLOT[op]] = fraction
            mixes.append(mix_row)
        vec.mix_matrix = np.array(mixes, dtype=np.float64).reshape(len(mixes), 5)
        return vec

    def _vector_pass(
        self,
        vec: _VectorContext,
        throughputs: dict[str, float],
        background: np.ndarray,
    ):
        """One demand+latency evaluation over the whole cluster.

        Returns ``(lat, node_sums)`` where ``lat`` is the (5, N+1) per-op
        latency matrix (column N = unavailable sentinel) and ``node_sums``
        the per-node ``(hit, miss, cpu, iops, disk_bytes, net,
        mean_locality)`` columns :meth:`NodeEvaluator.load_result` takes.
        """
        rates = np.zeros((len(vec.regions), 5))
        for name, rows, units in vec.binding_fill:
            throughput = throughputs[name]
            if throughput and len(rows):
                rates[rows] += throughput * units
        read, update, insert, scan, rmw = rates.T  # OP_TYPES order
        read_like = read + rmw
        write = update + insert + rmw
        rr = read_like + scan
        tot = read + update + insert + scan + rmw

        coeffs = vec.coeffs
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
        hot_r = np.where(mask, vec.hot_bytes, 0.0)
        cold_r = np.where(mask, vec.cold_bytes, 0.0)
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
        sums = np.add.reduceat(stacked, vec.offsets, axis=1)
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

        cache = vec.cache_eff_bytes
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
        cpu_util = cpu_n / vec.cpu_budget
        iops_util = iops_n / vec.disk_iops_budget
        bw_util = bytes_n / vec.disk_bytes_budget
        io_wait = np.maximum(iops_util, bw_util)
        net_util = net_n / vec.network_bytes_budget
        util = np.maximum(cpu_util, np.maximum(io_wait, net_util))
        tot_safe = np.where(tot_n > 0.0, tot_n, 1.0)
        mean_loc = np.where(tot_n > 0.0, loc_n / tot_safe, 1.0)

        node_count = len(vec.nodes)
        lat = np.empty((5, node_count + 1))
        lat[:, node_count] = UNAVAILABLE_MS
        lat[:, :node_count] = op_latencies(
            hit, miss, util, mean_loc, vec.disk_ms, vec.blocks0, vec.scan_length0, np.minimum
        )
        return lat, (hit, miss, cpu_n, iops_n, bytes_n, net_n, mean_loc)

    def _solve_vector(
        self,
        ctx: _SolveContext,
        compaction_bg: dict[str, float],
        throughputs: dict[str, float],
    ) -> tuple[dict[str, object], dict[str, float]]:
        """Node results and binding latencies at the fixed point, one
        ``reduceat`` over the columnar view per iteration."""
        vec = ctx.vector
        sizes = np.fromiter(
            (region.size_bytes for region in vec.regions),
            dtype=np.float64,
            count=len(vec.regions),
        )
        hot_fraction = vec.coeffs[ROW_HOT_DATA_FRACTION]
        vec.hot_bytes = sizes * hot_fraction
        vec.cold_bytes = sizes * (1.0 - hot_fraction)
        background = np.array(
            [compaction_bg.get(name, 0.0) for name, _ in vec.nodes],
            dtype=np.float64,
        )

        def binding_latencies_at(lat) -> dict[str, float]:
            mixed = vec.mix_matrix @ lat
            return {
                name: float(weights @ mixed[position, term_nodes])
                for position, (name, weights, term_nodes) in enumerate(vec.binding_terms)
            }

        _fixed_point(
            self._sim.bindings,
            throughputs,
            lambda: binding_latencies_at(self._vector_pass(vec, throughputs, background)[0]),
        )

        lat, node_sums = self._vector_pass(vec, throughputs, background)
        # Each node's result is rebuilt from its column entries by the same
        # formulas, so its latency dict holds exactly ``lat``'s floats.
        node_results: dict[str, object] = {}
        per_node = zip(*(column.tolist() for column in node_sums))
        for (name, evaluator), sums in zip(vec.nodes, per_node):
            node_results[name] = evaluator.load_result(*sums)
        # Online nodes with no hosted regions (drained, freshly booted) go
        # through their own evaluator (cheap -- empty region list).
        for name, evaluator in vec.empty_nodes:
            node_results[name] = evaluator.evaluate_rates([], compaction_bg.get(name, 0.0))
        return node_results, binding_latencies_at(lat)
