"""The segment-log metrics registry against its per-series oracle.

:class:`~repro.simulation.metrics.MetricsRegistry` logs one entry per
recorded batch and builds a series only when it is read.
``ReferenceMetricsRegistry`` (``tests/metrics_oracle.py``) writes every
batch into every series at once and merges distribution windows one
summary at a time.  A hypothesis property runs random sequences of
records, replays, drops and reads against both and requires every read to
agree bit for bit.  Two further tests pin the cost model: a replayed batch
adds one log entry and no per-key state, and a fast-forwarded harness run
builds no per-node series.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metrics_oracle import ReferenceMetricsRegistry
from repro.experiments.harness import ExperimentHarness
from repro.simulation.cluster import ClusterSimulator
from repro.simulation.latency import LatencySummary
from repro.simulation.metrics import MetricsRegistry
from repro.simulation.workload import WorkloadBinding

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
    st.tuples(st.just("drop"), st.sampled_from(ENTITIES)),
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
                # The identical tuple replays the logged payload; an equal
                # copy is a fresh batch whose keys intern to the last ones.
                record(kind, ticks, last[kind] if same_object else tuple(list(last[kind])))
        elif name == "drop":
            registry.drop_entity(operation[1])
            oracle.drop_entity(operation[1])
        elif name == "read":
            read_key(registry, oracle, operation[1], operation[2], now)
        else:
            read_all(registry, oracle, operation[1], now)
    read_all(registry, oracle, [((False, 0.0), (False, 1.0))], now)


def test_dropped_entity_restarts_empty_when_it_returns():
    registry = MetricsRegistry()
    batch = (("node-1", "cpu", 0.5), ("node-2", "cpu", 0.25))
    registry.record_many_repeated([1.0, 2.0], batch)
    registry.drop_entity("node-1")
    assert registry.latest("node-1", "cpu", default=-1.0) == -1.0
    registry.record_many_repeated([3.0], batch)  # the same tuple: a replay
    assert registry.latest("node-1", "cpu") == 0.5
    assert [key for key, _ in registry.items()] == [("node-2", "cpu"), ("node-1", "cpu")]
    assert registry.series("node-1", "cpu").timestamps == [3.0]
    assert registry.series("node-2", "cpu").timestamps == [1.0, 2.0, 3.0]


def test_time_order_is_checked_across_the_whole_registry():
    """Stricter than a per-series check: another key may not go back either,
    and a rejected batch leaves the log as it was."""
    registry = MetricsRegistry()
    registry.record_many(5.0, [("a", "x", 1.0)])
    with pytest.raises(ValueError, match="time order"):
        registry.record_many(4.0, [("b", "y", 1.0)])
    assert [key for key, _ in registry.items()] == [("a", "x")]
    assert len(registry._scalar_log) == 1


def test_a_batch_names_each_key_once():
    with pytest.raises(ValueError, match="once"):
        MetricsRegistry().record_many(0.0, [("a", "x", 1.0), ("a", "x", 2.0)])


def test_replaying_a_batch_adds_one_entry_and_no_per_key_state():
    registry = MetricsRegistry()
    batch = tuple((f"node-{index}", "cpu", float(index)) for index in range(50))
    registry.record_many_repeated([1.0], batch)
    log = registry._scalar_log
    views = dict(log.views)
    for step in range(7):
        registry.record_many_repeated([2.0 + step, 2.5 + step], batch)
    assert len(log) == 8
    assert log.views == views and all(view is None for view in views.values())
    assert len({id(keyset) for keyset in log.keysets}) == 1
    assert set(log.offsets) == {0} and len(log.values) == len(batch)
    assert registry.series("node-3", "cpu").values == [3.0] * 15


def test_fast_forwarded_run_builds_no_per_node_series():
    """A quiescent harness run reads only the tenants' series; every per-node
    sample stays in the log, unbuilt."""
    sim = ClusterSimulator(tick_seconds=5.0)
    nodes = [sim.add_node() for _ in range(4)]
    for index in range(8):
        sim.add_region(f"r{index}", "t", 2e8, node=nodes[index % len(nodes)])
    sim.attach_workload(
        WorkloadBinding(
            name="t",
            threads=40,
            op_mix={"read": 0.9, "update": 0.1},
            region_weights={f"r{index}": 1.0 / 8 for index in range(8)},
        )
    )
    ExperimentHarness(sim, sample_every_seconds=60.0).run_for(1800.0)
    log = sim.metrics._scalar_log
    assert len(log) < 1800.0 / 5.0  # fast-forwarded: batches, not ticks
    per_node = [key for key in log.views if key[0] in nodes]
    assert len(per_node) == 5 * len(nodes)
    assert all(log.views[key] is None for key in per_node)
    assert log.views[("workload:t", "throughput")] is not None
