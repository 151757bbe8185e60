"""The metrics registry against its per-series oracle, and what it records.

:class:`~repro.simulation.metrics.MetricsRegistry` folds a run of one
summary object into a window merge as ``scale(k)`` and checks time order
once per kind across the registry.  ``ReferenceMetricsRegistry``
(``tests/metrics_oracle.py``) merges distribution windows one summary at a
time and checks time order per series.  A hypothesis property runs random
sequences of records, replays and reads against both and requires every
read to agree bit for bit.  Further tests pin the registry's checks and
the key set the simulator records: each tenant's throughput and latency,
nothing per node.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metrics_oracle import ReferenceMetricsRegistry
from repro.experiments.harness import ExperimentHarness
from repro.simulation.cluster import ClusterSimulator
from repro.simulation.latency import LatencySummary
from repro.simulation.metrics import MetricsRegistry
from repro.simulation.solvers import EventSolver
from repro.simulation.workload import WorkloadBinding
from solver_oracles import NoReuseSolver, installed

ENTITIES = ("node-1", "node-2", "workload:a")
KEYS = [(entity, metric) for entity in ENTITIES for metric in ("cpu", "latency_ms")]

#: Tick lengths of one batch; 0.0 repeats a timestamp, 0.7 is inexact.
TICKS = st.lists(st.sampled_from((0.0, 0.5, 0.7, 1.0)), min_size=1, max_size=4)
BATCH_KEYS = st.lists(st.sampled_from(KEYS), unique=True, max_size=len(KEYS))
SCALARS = st.lists(
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(-3, 3),
        # Values whose repeated sums round differently from a multiply.
        st.sampled_from((0.1, 0.7, 1e16, -1e16)),
    ),
    min_size=len(KEYS),
    max_size=len(KEYS),
)
SUMMARIES = st.lists(
    st.dictionaries(st.integers(0, 12), st.integers(1, 40), max_size=3),
    min_size=len(KEYS),
    max_size=len(KEYS),
)
#: A window bound: a fraction of the time span, or the index of a recorded
#: timestamp (so windows land exactly on, and inside, runs of one value).
BOUND = st.tuples(st.booleans(), st.floats(0.0, 1.0))
WINDOWS = st.lists(st.tuples(BOUND, BOUND), min_size=1, max_size=3)

OPS = st.one_of(
    st.tuples(st.just("scalars"), TICKS, BATCH_KEYS, SCALARS),
    st.tuples(st.just("replay-scalars"), TICKS, st.booleans()),
    st.tuples(st.just("distributions"), TICKS, BATCH_KEYS, SUMMARIES),
    st.tuples(st.just("replay-distributions"), TICKS, st.booleans()),
    st.tuples(st.just("read"), st.sampled_from(KEYS), WINDOWS),
    st.tuples(st.just("read-all"), WINDOWS),
)


def bits(values) -> list[str]:
    """Exact float identity (``float.hex`` also rejects a non-float)."""
    return [value.hex() for value in values]


def resolve(bound, timestamps: list[float], now: float) -> float:
    snap, fraction = bound
    if snap and timestamps:
        return timestamps[min(int(fraction * len(timestamps)), len(timestamps) - 1)]
    return -1.0 + fraction * (now + 2.0)


def assert_same_series(series, twin, windows, now) -> None:
    assert series.timestamps == twin.timestamps
    assert bits(series.values) == bits(twin.values)
    assert series.latest(-1.0).hex() == twin.latest(-1.0).hex()
    for low, high in windows:
        start = resolve(low, twin.timestamps, now)
        end = resolve(high, twin.timestamps, now)
        assert series.mean_between(start, end).hex() == twin.mean_between(start, end).hex()


def assert_same_distribution(series, twin, windows, now) -> None:
    assert series.timestamps == twin.timestamps
    assert len(series.values) == len(twin.values)
    assert all(mine is theirs for mine, theirs in zip(series.values, twin.values))
    merged, expected = series.merged(), twin.merged()
    assert (merged is None) == (expected is None)
    if expected is not None:
        assert merged.to_pairs() == expected.to_pairs()
    for low, high in windows:
        start = resolve(low, twin.timestamps, now)
        end = resolve(high, twin.timestamps, now)
        merged = series.merged_between(start, end)
        expected = twin.merged_between(start, end)
        assert (merged is None) == (expected is None)
        if expected is not None:
            assert merged.to_pairs() == expected.to_pairs()


def read_key(registry, oracle, key, windows, now) -> None:
    assert registry.latest(*key, default=-1.0) == oracle.latest(*key, default=-1.0)
    distribution, twin = registry.distribution(*key), oracle.distribution(*key)
    assert (distribution is None) == (twin is None)
    if twin is not None:
        assert_same_distribution(distribution, twin, windows, now)
    # series() creates the key in both registries when it is missing.
    assert_same_series(registry.series(*key), oracle.series(*key), windows, now)


def read_all(registry, oracle, windows, now) -> None:
    scalars, twins = registry.items(), oracle.items()
    assert [key for key, _ in scalars] == [key for key, _ in twins]
    for (_, series), (_, twin) in zip(scalars, twins):
        assert_same_series(series, twin, windows, now)
    distributions, twins = registry.distributions(), oracle.distributions()
    assert [key for key, _ in distributions] == [key for key, _ in twins]
    for (_, series), (_, twin) in zip(distributions, twins):
        assert_same_distribution(series, twin, windows, now)


@settings(max_examples=150, deadline=None)
@given(operations=st.lists(OPS, max_size=24))
def test_segment_log_reads_match_the_per_series_registry(operations):
    registry, oracle = MetricsRegistry(), ReferenceMetricsRegistry()
    now = 0.0
    last = {"scalars": None, "distributions": None}

    def record(kind, ticks, samples):
        nonlocal now
        timestamps = []
        for dt in ticks:
            now += dt
            timestamps.append(now)
        for target in (registry, oracle):
            if kind == "scalars" and len(timestamps) == 1:
                target.record_many(timestamps[0], samples)
            elif kind == "scalars":
                target.record_many_repeated(timestamps, samples)
            elif len(timestamps) == 1:
                target.record_distributions(timestamps[0], samples)
            else:
                target.record_distributions_repeated(timestamps, samples)
        last[kind] = samples

    for operation in operations:
        name = operation[0]
        if name == "scalars":
            _, ticks, keys, values = operation
            record("scalars", ticks, tuple((*key, value) for key, value in zip(keys, values)))
        elif name == "distributions":
            _, ticks, keys, counts = operation
            samples = tuple(
                (*key, LatencySummary(dict(bins))) for key, bins in zip(keys, counts)
            )
            record("distributions", ticks, samples)
        elif name.startswith("replay-"):
            _, ticks, same_object = operation
            kind = name.removeprefix("replay-")
            if last[kind] is not None:
                # The identical tuple (its summaries continue a run) or an
                # equal copy.
                record(kind, ticks, last[kind] if same_object else tuple(list(last[kind])))
        elif name == "read":
            read_key(registry, oracle, operation[1], operation[2], now)
        else:
            read_all(registry, oracle, operation[1], now)
    read_all(registry, oracle, [((False, 0.0), (False, 1.0))], now)


def test_time_order_is_checked_across_the_whole_registry():
    """Stricter than a per-series check: another key may not go back either,
    and a rejected batch leaves the registry as it was."""
    registry = MetricsRegistry()
    registry.record_many(5.0, [("a", "x", 1.0)])
    registry.record_distributions(5.0, [("a", "d", LatencySummary({1: 1}))])
    with pytest.raises(ValueError, match="time order"):
        registry.record_many(4.0, [("b", "y", 1.0), ("a", "x", 2.0)])
    with pytest.raises(ValueError, match="time order"):
        registry.record_distributions(4.0, [("b", "d", LatencySummary({1: 1}))])
    with pytest.raises(ValueError, match="once"):
        registry.record_many(6.0, [("c", "z", 1.0), ("c", "z", 2.0)])
    assert [key for key, _ in registry.items()] == [("a", "x")]
    assert [key for key, _ in registry.distributions()] == [("a", "d")]
    assert [len(series) for _, series in registry.items()] == [1]
    assert [len(series) for _, series in registry.distributions()] == [1]
    # The kinds keep separate clocks: a scalar at 5.0 is still in order.
    registry.record_many(5.0, [("b", "y", 1.0)])


def test_a_batch_names_each_key_once():
    with pytest.raises(ValueError, match="once"):
        MetricsRegistry().record_many(0.0, [("a", "x", 1.0), ("a", "x", 2.0)])


def _tenant_cluster(solver) -> ClusterSimulator:
    """Two insert-free tenants on four nodes: quiescent once settled."""
    with installed(solver):
        sim = ClusterSimulator(tick_seconds=5.0)
    nodes = [sim.add_node() for _ in range(4)]
    for tenant in ("a", "b"):
        for index in range(4):
            sim.add_region(f"{tenant}{index}", tenant, 2e8, node=nodes[index % len(nodes)])
        sim.attach_workload(
            WorkloadBinding(
                name=tenant,
                threads=40,
                op_mix={"read": 0.9, "update": 0.1},
                region_weights={f"{tenant}{index}": 0.25 for index in range(4)},
            )
        )
    return sim


def test_only_tenant_series_are_recorded():
    """Each tenant's throughput and latency, and nothing per node or per
    cluster, whether the run was fast-forwarded or ticked.  Controllers
    read node state from the nodes themselves."""
    fast_forwarded = _tenant_cluster(EventSolver)
    ExperimentHarness(fast_forwarded, sample_every_seconds=60.0).run_for(1800.0)
    assert fast_forwarded.stats.skipped_ticks > 300, "fast-forward never engaged"
    ticked = _tenant_cluster(NoReuseSolver)
    ticked.run(600.0)
    assert ticked.stats.skipped_ticks == 0
    for sim in (fast_forwarded, ticked):
        scalars = [
            (f"workload:{name}", metric)
            for name in sim.bindings
            for metric in ("throughput", "latency_ms")
        ]
        assert [key for key, _ in sim.metrics.items()] == scalars
        assert [key for key, _ in sim.metrics.distributions()] == [
            (f"workload:{name}", "latency_ms") for name in sim.bindings
        ]
