"""Runs the simulator benchmark: every workload, or one, each in a fresh interpreter.

    python3 bench/run.py                      # all four workloads (~110 s)
    python3 bench/run.py --quick              # smoke run: one short timed pass each
    python3 bench/run.py --trace              # also one traced pass per workload
    python3 bench/run.py --workload catalog --seed 3 --seconds 15 --trace 0

For each workload it times set-up in several fresh interpreters, then
measures in one more (see worker.py), checks every op's output, prints
every metric by name with its unit and writes a result JSON under
``bench/results/`` (or ``--out``).  A full run of all workloads also
appends one line to ``bench/history.jsonl`` and compares itself with the
first line there, the baseline.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1`` (both, prefixed by workload, when all workloads run).

Metric names, units, directions and bounds live in ``BENCHMARK.json`` at
the repository root; ``bench/README.md`` defines each one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
HISTORY = BENCH / "history.jsonl"
#: Fresh interpreters whose set-up times give ``setup_s`` (their median).
SETUP_PROBES = 5
#: A measuring interpreter may overrun ``--seconds`` by this much (set-up,
#: warm-up pass, last pass, traced pass) before it is stopped.
CHILD_SLACK_S = 150


def child(arguments: list[str], timeout: float) -> dict:
    """Run worker.py with ``arguments``; return the JSON of its last line."""
    process = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *arguments],
        capture_output=True,
        text=True,
        timeout=timeout,
        check=False,
    )
    if process.returncode != 0:
        sys.stderr.write(process.stderr)
        raise SystemExit(f"worker.py {' '.join(arguments)} exited with status {process.returncode}")
    return json.loads(process.stdout.strip().splitlines()[-1])


def run_workload(name: str, args, size: str, probes: int, stem: str) -> dict:
    common = ["--workload", name, "--seed", str(args.seed), "--size", size]
    setups = [child(common + ["--setup-only"], CHILD_SLACK_S)["setup_s"] for _ in range(probes)]
    result = child(
        common
        + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        + ["--results", str(BENCH / "results"), "--stem", f"{stem}-{name}"],
        args.seconds + CHILD_SLACK_S,
    )
    result["metrics"]["setup_s"] = statistics.median(setups)
    result["setup_s_samples"] = setups
    return result


def with_units(values: dict, declared: list[dict]) -> dict:
    """``{name: {"value", "unit"}}`` in BENCHMARK.json order; names must match exactly."""
    names = [metric["name"] for metric in declared]
    mismatch = sorted(set(names) ^ set(values))
    if mismatch:
        raise SystemExit(f"measured metrics do not match BENCHMARK.json: {mismatch}")
    return {metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]} for metric in declared}


def provenance(numpy_version: str | None) -> dict:
    sha = dirty = None
    if (ROOT / ".git").exists():

        def git(*command: str) -> str:
            return subprocess.run(
                ["git", "-C", str(ROOT), *command], capture_output=True, text=True, check=True
            ).stdout.strip()

        sha = git("rev-parse", "HEAD")
        dirty = bool(git("status", "--porcelain"))
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def against_baseline(results: dict, seed: int, declared: list[dict]) -> dict:
    """Each end-to-end metric against the first history line, under its bound.

    One run against one baseline run is only a hint: run-to-run spread can
    exceed a bound, which is why A/B claims go through compare.py.
    """
    if not HISTORY.exists():
        return {}
    lines = HISTORY.read_text().splitlines()
    if not lines:
        return {}
    baseline = json.loads(lines[0])
    if baseline["seed"] != seed:
        return {}
    verdicts: dict = {}
    for metric in declared:
        name, bound = metric["name"], metric["bound"]
        for workload, result in results.items():
            base = baseline["metrics"].get(workload, {}).get(name)
            if not base:
                continue
            value = result["metrics"][name]["value"]
            worse = (value - base) / base if metric["better"] == "lower" else (base - value) / base
            verdicts.setdefault(workload, {})[name] = {
                "baseline": base,
                "worse_by": worse,
                "bound": bound,
                "within": worse <= bound,
            }
    return verdicts


def report(name: str, result: dict) -> None:
    passes = result["passes"]
    print(
        f"\n{name}: {result['ops_per_pass']} ops/pass, {passes['timed']} timed passes, "
        f"{result['failed']} of {result['attempted']} ops failed"
    )
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    for metric, row in result["metrics"].items():
        print(f"  {metric:<16} {row['value']:>14.4f} {row['unit']}")
    tail = result["op_ms_tail"]
    if tail["percentile"] is not None:
        print(f"  {'op_ms_p%g' % tail['percentile']:<16} {tail['ms']:>14.4f} ms  ({tail['samples']} ops)")
    for controller, row in sorted(result["outcome"].items()):
        print(f"  {controller + '.violation_min':<22} {row['violation_min']:>8g} sim-min   cost {row['cost']:.6f}")
    print(f"  output digest {result['digest']}")
    layers = result.get("per_layer")
    if layers:
        shares = {metric[: -len(".share")]: row["value"] for metric, row in layers.items() if metric.endswith(".share")}
        print("  layer            self_s    share")
        for layer, share in sorted(shares.items(), key=lambda item: -item[1]):
            print(f"  {layer:<12} {layers[layer + '.self_s']['value']:>10.4f} {share:>8.3f}")
        for metric, row in layers.items():
            if not metric.endswith((".share", ".self_s", ".calls")):
                print(f"  {metric:<24} {row['value']:>14.4f} {row['unit']}")
        print(f"  spans: {result['spans_file']}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads, help="run only this workload")
    parser.add_argument("--seed", type=int, default=0, help="workload seed; 0 also checks the golden traces")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"], help="timed pass time per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="one short timed pass per workload, no baseline check")
    parser.add_argument("--out", type=Path, help="result JSON path (default: under bench/results/)")
    args = parser.parse_args(argv)
    size, probes = ("quick", 1) if args.quick else ("full", SETUP_PROBES)
    if args.quick:
        args.seconds = 0.0
    names = [args.workload] if args.workload else workloads
    stem = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"

    results = {}
    for name in names:
        result = run_workload(name, args, size, probes, stem)
        result["metrics"] = with_units(result["metrics"], spec["end_to_end"])
        if args.trace:
            result["per_layer"] = with_units(result["per_layer"], spec["per_layer"])
        results[name] = result
        report(name, result)

    attempted = sum(result["attempted"] for result in results.values())
    failed = sum(result["failed"] for result in results.values())
    document = {
        "provenance": provenance(next(iter(results.values()))["numpy"]),
        "seed": args.seed,
        "seconds": args.seconds,
        "size": size,
        "trace": args.trace,
        "bounds": {metric["name"]: metric["bound"] for metric in spec["end_to_end"]},
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "workloads": results,
    }
    full_run = not args.quick and not args.workload
    if full_run:
        document["vs_baseline"] = against_baseline(results, args.seed, spec["end_to_end"])
        for workload, verdicts in document["vs_baseline"].items():
            for metric, verdict in verdicts.items():
                if not verdict["within"]:
                    print(
                        f"NOTE {workload} {metric} is {verdict['worse_by']:+.1%} against the baseline "
                        f"(bound {verdict['bound']:.0%}); confirm with compare.py before calling it a regression"
                    )
    out = args.out or BENCH / "results" / f"{stem}-{args.workload or 'all'}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"\nresult: {out}")
    if full_run:
        line = {
            "when": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            **{key: document[key] for key in ("seed", "seconds", "correct")},
            **document["provenance"],
            "metrics": {name: {m: row["value"] for m, row in r["metrics"].items()} for name, r in results.items()},
            "digests": {name: result["digest"] for name, result in results.items()},
        }
        with HISTORY.open("a") as handle:
            handle.write(json.dumps(line, sort_keys=True) + "\n")

    if args.workload:
        section = "per_layer" if args.trace else "metrics"
        metrics = results[args.workload][section]
    else:
        metrics = {
            f"{name}.{metric}": row
            for name, result in results.items()
            for section in ("metrics", "per_layer")
            for metric, row in result.get(section, {}).items()
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
