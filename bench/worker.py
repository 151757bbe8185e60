"""Runs one workload in this interpreter and prints what it measured as JSON.

``run.py`` starts this script in fresh interpreters: with ``--setup-only``
a few times to time set-up (imports plus building the workload's inputs),
then once to measure.  A measuring run is one untimed warm-up pass, timed
passes until ``--seconds`` of pass time have elapsed (at least one), and
with ``--trace 1`` one more pass with the tracer installed.  Every op of
every pass is checked; the last line of standard output is the JSON
result.
"""

import time

# Set-up time starts before the imports it measures.
STARTED = time.perf_counter()

import argparse
import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads
from stats import percentile, tail_percentile
from tracer import ENTRIES, LAYERS, Patcher, Tracer, spans_document, summarise

KERNEL_COUNTERS = ("ticks", "solves", "reused_ticks", "skipped_ticks", "macro_batches")


def check_passes(passes: list) -> tuple[int, int, list[str]]:
    """``(attempted, failed, reasons)`` over every op of every pass.

    An op fails when it failed its own check, or when its digest differs
    from the same op in the first pass.
    """
    reference = {op.name: op.digest for op in passes[0].ops}
    attempted, reasons = 0, []
    for number, one in enumerate(passes):
        for op in one.ops:
            attempted += 1
            reason = op.error
            if not reason and op.digest != reference.get(op.name):
                reason = "output differs from the first pass"
            if reason:
                reasons.append(f"pass {number} {op.name}: {reason}")
    return attempted, len(reasons), reasons


def end_to_end(timed: list) -> tuple[dict, dict]:
    """The end-to-end metrics (less ``setup_s``) and the tail op time."""
    op_ms = [op.seconds * 1000.0 for one in timed for op in one.ops]
    rss_kb = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    metrics = {
        "sim_min_per_s": statistics.median(one.sim_minutes / one.wall for one in timed),
        "op_ms_p50": statistics.median(op_ms),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    tail = tail_percentile(len(op_ms))
    tail_row = {"percentile": tail, "ms": None if tail is None else percentile(op_ms, tail), "samples": len(op_ms)}
    return metrics, tail_row


def serial_pass(workload):
    """One pass in this process (a campaign otherwise fans out to a pool)."""
    return workload.run_pass(workers=1) if isinstance(workload, workloads.Campaign) else workload.run_pass()


def traced_pass(workload):
    """One pass with spans recorded; also returns kernel counters and actions.

    Kernel counters are summed over every simulator the pass constructs
    (their ``stats`` objects are collected at construction and read after
    the pass); controller actions are ``len(result.decisions)`` of every
    scenario run.  The pass runs in this process, because spans do not
    cross processes.
    """
    from repro.campaign import runner as campaign_runner
    from repro.scenarios import runner as scenario_runner
    from repro.simulation.cluster import ClusterSimulator

    counters: list = []
    actions = [0]

    def collect_stats(original):
        def init(self, *args, **kwargs):
            original(self, *args, **kwargs)
            counters.append(self.stats)

        return init

    def count_actions(original):
        def run_scenario(*args, **kwargs):
            result = original(*args, **kwargs)
            actions[0] += len(result.decisions)
            return result

        return run_scenario

    taps = Patcher()
    tracer = Tracer()
    try:
        taps.patch(ClusterSimulator, "__init__", collect_stats)
        for module in (scenario_runner, campaign_runner):
            taps.patch(module, "run_scenario", count_actions)
        tracer.install()
        one = serial_pass(workload)
    finally:
        tracer.uninstall()
        taps.restore()
    kernel = {name: sum(getattr(stats, name) for stats in counters) for name in KERNEL_COUNTERS}
    return one, tracer.spans, kernel, actions[0]


def per_layer(traced, spans, kernel, actions, timed, serial) -> dict:
    """The per-layer metrics of one traced pass (see bench/README.md).

    ``serial`` are untraced passes run the way the traced pass ran, in one
    process; the tracing overhead is measured against their median.
    """
    summary = summarise(spans)
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    metrics = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for entry in ENTRIES:
        row = summary.get(entry.name, empty)
        metrics[f"{entry.name}.calls"] = row["calls"]
        metrics[f"{entry.name}.self_s"] = row["self_s"]
        layer_self[entry.layer] += row["self_s"]
    for layer, seconds in layer_self.items():
        metrics[f"{layer}.self_s"] = seconds
        metrics[f"{layer}.share"] = seconds / traced.wall
    metrics["trace.overhead"] = traced.wall / statistics.median(one.wall for one in serial) - 1.0
    for name, value in kernel.items():
        metrics[f"kernel.{name}"] = value
    ticks, solves = kernel["ticks"], kernel["solves"]
    metrics["kernel.real_solve_frac"] = solves / ticks if ticks else 0.0
    batches = kernel["macro_batches"]
    metrics["kernel.ticks_per_batch"] = kernel["skipped_ticks"] / batches if batches else 0.0
    solve_s = summary.get("solvers.solve", empty)["total_s"]
    metrics["solvers.solve_ms"] = 1000.0 * solve_s / solves if solves else 0.0
    metrics["controllers.actions"] = actions
    pooled = [one for one in timed if one.workers > 1]
    metrics["campaign.pool_util"] = (
        statistics.median(sum(op.seconds for op in one.ops) / (one.wall * one.workers) for one in pooled)
        if pooled
        else 0.0
    )
    return metrics


def outcome(first) -> dict:
    """Simulated outcome of one pass per controller: violation-minutes and cost."""
    sums: dict = {}
    for op in first.ops:
        if op.controller:
            row = sums.setdefault(op.controller, {"violation_min": 0.0, "cost": 0.0})
            row["violation_min"] += op.violation_min
            row["cost"] += op.cost
    return sums


def measure(args) -> dict:
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size)
    passes = [workload.run_pass()]
    timed = []
    while not timed or sum(one.wall for one in timed) < args.seconds:
        timed.append(workload.run_pass())
    passes += timed
    result = {"passes": {"warmup": 1, "timed": len(timed), "traced": args.trace}}
    result["metrics"], result["op_ms_tail"] = end_to_end(timed)
    if args.trace:
        serial = [one for one in timed if one.workers == 1]
        if not serial:
            serial = [serial_pass(workload)]
            passes += serial
        traced, spans, kernel, actions = traced_pass(workload)
        passes.append(traced)
        result["per_layer"] = per_layer(traced, spans, kernel, actions, timed, serial)
        spans_path = Path(args.results) / f"{args.stem}.trace.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps(spans_document(spans), separators=(",", ":")))
        result["spans_file"] = str(spans_path)
    result["attempted"], result["failed"], failures = check_passes(passes)
    result["failures"] = failures[:20]
    result["ops_per_pass"] = len(passes[0].ops)
    result["digest"] = hashlib.sha256("".join(str(op.digest) for op in passes[0].ops).encode()).hexdigest()
    result["outcome"] = outcome(passes[0])
    numpy = sys.modules.get("numpy")
    result["numpy"] = getattr(numpy, "__version__", None)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--setup-only", action="store_true", help="time imports plus input building, then exit")
    parser.add_argument("--seconds", type=float, default=10.0, help="timed pass time to reach")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=str(BENCH / "results"), help="directory for the span file")
    parser.add_argument("--stem", default="run", help="span file name stem")
    args = parser.parse_args(argv)
    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.seed, args.size)
        print(json.dumps({"setup_s": time.perf_counter() - STARTED}))
        return 0
    print(json.dumps(measure(args), sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
