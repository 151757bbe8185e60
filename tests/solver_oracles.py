"""Test oracles for the fixed-point solver.

:class:`ClusterSimulator` always builds an
:class:`~repro.simulation.solvers.EventSolver`; tests swap in one of the
subclasses below for the simulators constructed inside
``with installed(cls):`` (it monkeypatches
``repro.simulation.cluster.EventSolver``):

* :class:`NoReuseSolver` -- the production solver with reuse turned off:
  every tick is a real solve and the simulator never fast-forwards.  The
  twin that reuse and fast-forward must match byte for byte.
* :class:`ReferenceSolver` -- the seed's solver: full region scans, fresh
  allocations and a fixed iteration count.  The independent oracle the
  production solver must match to 1e-6 relative.

:func:`assert_context_fresh` is the third oracle: the cached solve context
against one built from scratch.  Both twins above share that cache, so
only this check sees a context that went stale within one signature.
:func:`assert_identical_metrics` compares two simulators' metric and
latency distribution series bit for bit.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro.simulation import cluster
from repro.simulation.perfmodel import (
    ROW_COLD_BYTES,
    ROW_HOT_BYTES,
    ROW_SIZE_BYTES,
    NodeEvaluator,
    RegionLoadProfile,
)
from repro.simulation.solvers import (
    EventSolver,
    SolveResult,
    binding_summaries,
    summary_terms,
)


@contextmanager
def installed(solver_cls):
    """Simulators constructed inside the block use ``solver_cls``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cluster, "EventSolver", solver_cls)
        yield


#: Evaluator row slots that track region size.
_SIZE_SLOTS = (ROW_HOT_BYTES, ROW_COLD_BYTES, ROW_SIZE_BYTES)
#: Context fields derived from region sizes alone.
_SIZE_FIELDS = frozenset({"memory_utilization", "hot_bytes", "cold_bytes", "hosted_bytes"})


def context_view(ctx) -> object:
    """A solve context reduced to bit-comparable values.

    Arrays compare by bytes, ``__slots__`` objects (the context, its
    columnar view, the evaluators) slot by slot, rate rows by their
    position in ``ctx.rate_rows`` (their floats are per-solve scratch) and
    everything else by ``==``.  Size-dependent values are left out: sizes
    drift within a signature and each solve refreshes them from the live
    regions.
    """
    rate_row_index = {id(row): index for index, row in enumerate(ctx.rate_rows)}

    def view(value):
        if isinstance(value, np.ndarray):
            return (value.dtype.str, value.shape, value.tobytes())
        if isinstance(value, list) and id(value) in rate_row_index:
            return ("rate row", rate_row_index[id(value)])
        if isinstance(value, (list, tuple)):
            return tuple(view(item) for item in value)
        if isinstance(value, dict):
            return tuple((key, view(item)) for key, item in value.items())
        slots = getattr(type(value), "__slots__", None)
        if slots is None:
            return value
        fields = {slot: getattr(value, slot) for slot in slots if slot not in _SIZE_FIELDS}
        if isinstance(value, NodeEvaluator):
            fields["rows"] = [
                [x for slot, x in enumerate(row) if slot not in _SIZE_SLOTS]
                for row in value.rows
            ]
        elif "coeffs" in fields:
            fields["coeffs"] = np.delete(fields["coeffs"], _SIZE_SLOTS, axis=0)
        return (type(value).__name__, view(fields))

    return view(ctx)


def assert_context_fresh(sim) -> bool:
    """Assert the context the next solve would use equals a fresh build.

    Returns whether that context is the cached one; ``False`` means the
    signature had moved, so it was rebuilt just now and matched trivially.
    """
    solver = sim._solver
    previous = solver._context
    cached = solver._solve_context()
    fresh = EventSolver(sim)._solve_context()
    assert context_view(cached) == context_view(fresh), (
        f"cached solve context went stale at t={sim.clock.now}"
    )
    return cached is previous


def assert_identical_metrics(left, right) -> None:
    """Every metric series and latency distribution series must agree
    sample for sample, bit for bit (summaries by their exact bin counts)."""
    left_keys = {key for key, _ in left.metrics.items()}
    right_keys = {key for key, _ in right.metrics.items()}
    assert left_keys == right_keys
    for key, series in right.metrics.items():
        twin = left.metrics.series(*key)
        assert twin.timestamps == series.timestamps, f"timestamps differ for {key}"
        assert twin.values == series.values, f"values differ for {key}"
    left_distributions = left.metrics._distributions
    right_distributions = right.metrics._distributions
    assert set(left_distributions) == set(right_distributions)
    for key, series in right_distributions.items():
        twin = left_distributions[key]
        assert twin.timestamps == series.timestamps, (
            f"distribution timestamps differ for {key}"
        )
        assert [summary.to_pairs() for summary in twin.values] == [
            summary.to_pairs() for summary in series.values
        ], f"distribution summaries differ for {key}"


class NoReuseSolver(EventSolver):
    """:class:`EventSolver` that never replays a cached solution."""

    def reuse(self, compaction_bg: dict[str, float]) -> SolveResult | None:
        return None


class ReferenceSolver(NoReuseSolver):
    """The seed's solver: full scans, fresh allocations, fixed iterations."""

    def _regions_on(self, node_name: str) -> list:
        return [r for r in self._sim.regions.values() if r.node == node_name]

    def _region_profiles(self, node, offered) -> list[RegionLoadProfile]:
        profiles: list[RegionLoadProfile] = []
        for region in self._regions_on(node.name):
            rates = offered.get(region.region_id, {})
            profiles.append(
                RegionLoadProfile(
                    region_id=region.region_id,
                    size_bytes=region.size_bytes,
                    locality=region.locality,
                    record_size=region.record_size,
                    scan_length=region.scan_length,
                    hot_data_fraction=region.hot_data_fraction,
                    hot_request_fraction=region.hot_request_fraction,
                    read_rate=rates.get("read", 0.0),
                    update_rate=rates.get("update", 0.0),
                    insert_rate=rates.get("insert", 0.0),
                    scan_rate=rates.get("scan", 0.0),
                    rmw_rate=rates.get("read_modify_write", 0.0),
                )
            )
        return profiles

    def _offered_rates(self, throughputs: dict[str, float]) -> dict[str, dict[str, float]]:
        """Per-region offered rates implied by per-binding throughputs."""
        offered: dict[str, dict[str, float]] = {}
        for name, binding in self._sim.bindings.items():
            for load in binding.offered_loads(throughputs.get(name, 0.0)):
                bucket = offered.setdefault(load.region_id, {})
                for op, rate in load.rates.items():
                    bucket[op] = bucket.get(op, 0.0) + rate
        return offered

    def _evaluate_nodes(self, offered, compaction_bg):
        """Evaluate online nodes; returns results, region latencies, scales
        and the region -> hosting-node map of the evaluated assignment."""
        sim = self._sim
        node_results: dict[str, object] = {}
        region_latencies: dict[str, dict[str, float]] = {}
        region_scale: dict[str, float] = {}
        region_node: dict[str, str] = {}
        for node in sim.nodes.values():
            if not node.online:
                continue
            profiles = self._region_profiles(node, offered)
            result = sim._model_for(node).evaluate_node(
                node.config, profiles, compaction_bg.get(node.name, 0.0)
            )
            node_results[node.name] = result
            scale = 1.0 if result.utilization <= 1.0 else 1.0 / result.utilization
            for profile in profiles:
                region_latencies[profile.region_id] = result.per_op_latency_ms
                region_scale[profile.region_id] = scale
                region_node[profile.region_id] = node.name
        return node_results, region_latencies, region_scale, region_node

    def solve(self, compaction_bg: dict[str, float], iterations: int = 10) -> SolveResult:
        sim = self._sim
        throughputs = {
            name: sim._binding_throughput.get(name, binding.threads * 50.0)
            for name, binding in sim.bindings.items()
        }
        region_latencies: dict[str, dict[str, float]] = {}
        for _ in range(iterations):
            offered = self._offered_rates(throughputs)
            _, region_latencies, _, _ = self._evaluate_nodes(offered, compaction_bg)
            new_throughputs: dict[str, float] = {}
            for name, binding in sim.bindings.items():
                latency = binding.mean_latency(region_latencies)
                target = binding.max_throughput(latency)
                previous = throughputs[name]
                new_throughputs[name] = 0.5 * previous + 0.5 * target
            throughputs = new_throughputs

        offered = self._offered_rates(throughputs)
        node_results, region_latencies, region_scale, region_node = (
            self._evaluate_nodes(offered, compaction_bg)
        )
        achieved: dict[str, float] = {}
        region_rates: dict[str, dict[str, float]] = {}
        binding_latencies: dict[str, float] = {}
        for name, binding in sim.bindings.items():
            total = 0.0
            for load in binding.offered_loads(throughputs.get(name, 0.0)):
                scale = region_scale.get(load.region_id, 0.0)
                bucket = region_rates.setdefault(load.region_id, {})
                for op, rate in load.rates.items():
                    bucket[op] = bucket.get(op, 0.0) + rate * scale
                total += load.total * scale
            achieved[name] = total
            binding_latencies[name] = binding.mean_latency(region_latencies)
        summaries = binding_summaries(
            summary_terms(sim.bindings, region_node),
            {name: result.per_op_latency_ms for name, result in node_results.items()},
        )
        return achieved, node_results, region_rates, binding_latencies, summaries
