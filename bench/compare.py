"""A/B comparison of benchmark results: base (parent) runs against change runs.

    python3 bench/compare.py --base a1.json a2.json ... --change b1.json b2.json ...

Each file is a result JSON written by ``run.py`` (one workload or all of
them).  Give the files of each side in the order they ran: the i-th base
run is paired with the i-th change run, so run the sides alternately, at
least ten pairs, with identical settings.  For every (metric, workload)
pair it prints each side's median and quartiles, the share of pairs the
change won (ties count for neither side) and a verdict:

* ``unresolved``: the runs of either side spread (interquartile distance
  over median) wider than the metric's bound, and not every change run
  beats every base run;
* ``regression``: the change's median is worse than the base median by
  more than the metric's bound in ``BENCHMARK.json``;
* ``gain``: the change won at least nine tenths of the pairs and the
  medians differ by more than the base runs' interquartile distance;
* ``same``: none of these.

It also reports, per workload, whether both sides produced the same
output digests and failed the same number of ops.  The exit status is 1
when any pair is a regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

from stats import quartiles, spread

ROOT = Path(__file__).resolve().parent.parent


def load(paths: list[Path]) -> list[dict]:
    """Each run as ``{workload: result}``."""
    return [json.loads(path.read_text())["workloads"] for path in paths]


def verdict(base: list[float], change: list[float], better: str, bound: float) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    base_q1, base_median, base_q3 = quartiles(base)
    change_q1, change_median, change_q3 = quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0) / len(pairs)
    worse_by = sign * (base_median - change_median) / abs(base_median) if base_median else 0.0
    every_run_better = min(sign * c for c in change) > max(sign * b for b in base)
    if not every_run_better and max(spread(base), spread(change)) > bound:
        outcome = "unresolved"
    elif worse_by > bound:
        outcome = "regression"
    elif wins >= 0.9 and sign * (change_median - base_median) > base_q3 - base_q1:
        outcome = "gain"
    else:
        outcome = "same"
    return {
        "base": (base_q1, base_median, base_q3),
        "change": (change_q1, change_median, change_q3),
        "wins": wins,
        "worse_by": worse_by,
        "verdict": outcome,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, nargs="+", required=True, help="result JSONs of the parent commit")
    parser.add_argument("--change", type=Path, nargs="+", required=True, help="result JSONs of the change")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = load(args.base), load(args.change)
    if len(base) != len(change):
        print(f"warning: {len(base)} base runs against {len(change)} change runs; extra runs are not paired")

    regressions = 0
    workloads = [w["name"] for w in spec["workloads"] if any(w["name"] in run for run in base + change)]
    for workload in workloads:
        base_runs = [run[workload] for run in base if workload in run]
        change_runs = [run[workload] for run in change if workload in run]
        if not base_runs or not change_runs:
            print(f"\n{workload}: missing on one side, not compared")
            continue
        digests = {run["digest"] for run in base_runs + change_runs}
        failed = (sum(r["failed"] for r in base_runs), sum(r["failed"] for r in change_runs))
        print(
            f"\n{workload}: {len(base_runs)} base / {len(change_runs)} change runs; "
            f"outputs {'identical' if len(digests) == 1 else 'DIFFER'}; failed ops {failed[0]} -> {failed[1]}"
        )
        print(f"  {'metric':<15} {'base q1/med/q3':>32} {'change q1/med/q3':>32} {'wins':>5} {'worse':>7}  verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = verdict(
                [run["metrics"][name]["value"] for run in base_runs],
                [run["metrics"][name]["value"] for run in change_runs],
                metric["better"],
                metric["bound"],
            )
            regressions += row["verdict"] == "regression"
            print(
                f"  {name:<15} {'/'.join(f'{v:.4g}' for v in row['base']):>32} "
                f"{'/'.join(f'{v:.4g}' for v in row['change']):>32} {row['wins']:>5.0%} "
                f"{row['worse_by']:>+7.1%}  {row['verdict']} (bound {metric['bound']:.0%})"
            )
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main())
