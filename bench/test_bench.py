"""Fast self-test of the benchmark: tracer arithmetic, patch hygiene, the
percentile rule, the output checks, and a one-op run of every workload."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import worker
import workloads
from stats import percentile, tail_percentile
from tracer import ENTRIES, Patcher, Tracer, self_times, summarise


def declared(section: str) -> set[str]:
    """Metric names BENCHMARK.json declares in ``section``."""
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    return {metric["name"] for metric in spec[section]}


def test_self_time_subtracts_only_direct_children():
    #   a [0,10] -> b [1,4] -> c [2,3];  a -> b [5,6];  d [11,12] at the root
    spans = [
        [0, "a", 0.0, 10.0],
        [1, "b", 1.0, 4.0],
        [2, "c", 2.0, 3.0],
        [1, "b", 5.0, 6.0],
        [0, "d", 11.0, 12.0],
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0, 1.0]
    summary = summarise(spans)
    assert summary["b"] == {"calls": 2, "self_s": 3.0, "total_s": 4.0}
    assert sum(row["self_s"] for row in summary.values()) == 11.0


def test_wrapped_calls_nest_and_raise_through():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

        def broken(self):
            raise KeyError("boom")

    patcher = Patcher()
    for name in ("outer", "inner", "broken"):
        patcher.patch(Layer, name, lambda original, name=name: tracer.wrap(name, original))
    try:
        assert Layer().outer() == 2
        with pytest.raises(KeyError):
            Layer().broken()
    finally:
        patcher.restore()
    assert [(parent, name) for parent, name, _, _ in tracer.spans] == [(0, "outer"), (1, "inner"), (0, "broken")]
    assert all(end > start for _, _, start, end in tracer.spans)


def test_uninstall_puts_back_every_original():
    sites = [site for entry in ENTRIES for site in entry.sites()]
    originals = [vars(owner)[attr] for owner, attr in sites]
    tracer = Tracer()
    tracer.install()
    try:
        assert all(vars(owner)[attr] is not original for (owner, attr), original in zip(sites, originals))
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is original for (owner, attr), original in zip(sites, originals))


def test_patch_refuses_what_it_could_not_restore_faithfully():
    class Base:
        def step(self):
            return 0

    class Child(Base):
        @classmethod
        def build(cls):
            return cls()

    with pytest.raises(KeyError):
        Patcher().patch(Child, "step", lambda original: original)
    with pytest.raises(TypeError):
        Patcher().patch(Child, "build", lambda original: original)


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert tail_percentile(19) is None
    assert [tail_percentile(n) for n in (20, 40, 100, 200, 999, 1000, 10_000)] == [50, 75, 90, 95, 95, 99, 99.9]
    values = list(range(1, 201))
    assert percentile(values, 95) == 190
    assert percentile(values, 50) == 100
    assert percentile([7.0], 99.9) == 7.0


def _pass(*digests, error=""):
    return workloads.Pass([workloads.Op(f"op{i}", 0.1, 1.0, d, error) for i, d in enumerate(digests)], 0.2)


def test_an_op_fails_when_it_errs_or_its_output_changes_between_passes():
    assert worker.check_passes([_pass("a", "b"), _pass("a", "b")])[:2] == (4, 0)
    attempted, failed, reasons = worker.check_passes([_pass("a", "b"), _pass("a", "x")])
    assert (attempted, failed) == (4, 1) and "op1" in reasons[0]
    assert worker.check_passes([_pass("a", error="trace differs from the committed golden")])[1] == 1
    assert worker.check_passes([_pass(None), _pass("a")])[1] == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_op_of_each_workload_at_tiny_size(name, tmp_path):
    workload = workloads.WORKLOADS[name](0, "tiny")
    if isinstance(workload, workloads.Campaign):
        workload.scratch = tmp_path
    one = worker.serial_pass(workload)
    assert len(one.ops) == 1
    op = one.ops[0]
    assert op.error == "" and op.digest and op.seconds > 0 and op.sim_minutes > 0


def test_traced_pass_yields_exactly_the_declared_metrics():
    workload = workloads.Catalog(0, "tiny")
    timed = [workload.run_pass()]
    traced, spans, kernel, actions = worker.traced_pass(workload)
    per_layer = worker.per_layer(traced, spans, kernel, actions, timed, timed)
    assert set(per_layer) == declared("per_layer")
    assert per_layer["kernel.ticks"] > 0 and per_layer["harness.run_for.calls"] == 1
    assert worker.check_passes(timed + [traced])[1] == 0
    end_to_end, _ = worker.end_to_end(timed)
    assert set(end_to_end) | {"setup_s"} == declared("end_to_end")
