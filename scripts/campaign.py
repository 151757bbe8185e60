#!/usr/bin/env python
"""Run a controller x scenario x scale x seed campaign from the command line.

The default invocation sweeps the whole canned catalog under both
controllers at three seeds, fanning out over a process pool, appending one
JSON line per completed run to the results store, and printing the
aggregated MeT-vs-Tiramola comparison table:

    PYTHONPATH=src python scripts/campaign.py --workers 4

The store is resumable: re-running the same command skips every completed
cell, so an interrupted campaign finishes from where it stopped.  Useful
modes::

    --smoke            tiny 2x3x1 grid on 2 workers (the CI signal; all
                       three controllers incl. the planner); prints the
                       table and exits non-zero on any failed assertion
    --bench            times the grid serially and on the pool into throwaway
                       stores and writes BENCH_campaign.json at the repo root
    --scales 1.0,1.5   adds scale points (load multipliers) to the grid
    --plot PATH        quality-vs-cost scatter (skipped if matplotlib absent)
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.campaign import (  # noqa: E402
    BASELINE_SCALE,
    CampaignGrid,
    ResultsStore,
    ScaleSpec,
    plot_campaign,
    render_campaign_table,
    render_seed_quantile_table,
    run_campaign,
    write_campaign_bench,
)
from repro.scenarios import CANNED_SCENARIOS  # noqa: E402
from repro.util.wallclock import wall_perf_counter  # noqa: E402

SMOKE_SCENARIOS = ("diurnal", "flash_crowd")
# Smoke exercises every controller the scorecard compares, not just the
# paper's pair: a planner regression should fail CI's cheapest signal.
SMOKE_CONTROLLERS = "met,tiramola,planner"


def parse_scales(raw: str, tenant_copies: int) -> tuple[ScaleSpec, ...]:
    scales = []
    for part in raw.split(","):
        load = float(part)
        name = f"{load:g}x"
        scales.append(ScaleSpec(name=name, load=load, tenant_copies=tenant_copies))
    return tuple(scales)


def build_grid(args: argparse.Namespace) -> CampaignGrid:
    names = args.scenarios or sorted(CANNED_SCENARIOS)
    unknown = [name for name in names if name not in CANNED_SCENARIOS]
    if unknown:
        raise SystemExit(
            f"unknown scenarios: {', '.join(unknown)} "
            f"(available: {', '.join(sorted(CANNED_SCENARIOS))})"
        )
    if args.scales:
        scales = parse_scales(args.scales, args.tenant_copies)
    elif args.tenant_copies != 1:
        scales = (
            ScaleSpec(
                name=f"1x*{args.tenant_copies}",
                tenant_copies=args.tenant_copies,
            ),
        )
    else:
        scales = (BASELINE_SCALE,)
    return CampaignGrid(
        scenarios=tuple(CANNED_SCENARIOS[name] for name in names),
        controllers=tuple(args.controllers.split(",")),
        scales=scales,
        seeds=args.seeds,
        master_seed=args.master_seed,
    )


def print_progress(done: int, total: int, cell_id: str) -> None:
    print(f"[{done:4d}/{total}] {cell_id}", flush=True)


def run_bench(grid: CampaignGrid, args: argparse.Namespace) -> int:
    """Time the same grid serially and on the pool; write BENCH_campaign.json."""
    with tempfile.TemporaryDirectory(prefix="campaign-bench-") as tmp:
        # Profiling sidecars stay on for both passes: the byte-identity check
        # below then doubles as a regression test that wall-clock profiling
        # never leaks into the deterministic store.
        serial_store = ResultsStore(Path(tmp) / "serial.jsonl")
        start = wall_perf_counter()
        run_campaign(
            grid, serial_store, workers=1,
            profile_path=Path(tmp) / "serial.profile.jsonl",
        )
        serial_seconds = wall_perf_counter() - start

        pool_store = ResultsStore(Path(tmp) / "pool.jsonl")
        start = wall_perf_counter()
        run_campaign(
            grid, pool_store, workers=args.workers,
            profile_path=Path(tmp) / "pool.profile.jsonl",
        )
        pool_seconds = wall_perf_counter() - start

        if serial_store.path.read_bytes() != pool_store.path.read_bytes():
            print("FAIL: serial and pooled stores differ byte for byte")
            return 1
    report = write_campaign_bench(
        args.bench_output,
        grid_size=grid.size,
        workers=args.workers,
        serial_seconds=serial_seconds,
        pool_seconds=pool_seconds,
    )
    print(
        f"{grid.size} runs: serial {serial_seconds:.2f}s "
        f"({report['serial_runs_per_second']} runs/s), "
        f"{args.workers} workers {pool_seconds:.2f}s "
        f"({report['pool_runs_per_second']} runs/s), "
        f"speedup {report['pool_speedup']}x -> {args.bench_output}"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scenarios",
        nargs="*",
        default=None,
        help="scenario names to sweep (default: the whole canned catalog)",
    )
    parser.add_argument(
        "--controllers",
        default="met,tiramola",
        help="comma-separated controllers (default: met,tiramola)",
    )
    parser.add_argument("--seeds", type=int, default=3, help="seeds per cell (default: 3)")
    parser.add_argument("--master-seed", type=int, default=0)
    parser.add_argument(
        "--scales",
        default=None,
        help="comma-separated load multipliers, e.g. 1.0,1.5,2.0 (default: baseline only)",
    )
    parser.add_argument(
        "--tenant-copies",
        type=int,
        default=1,
        help="clone each tenant N times per scale (default: 1)",
    )
    parser.add_argument("--workers", type=int, default=4, help="pool size (default: 4)")
    parser.add_argument(
        "--store",
        type=Path,
        default=Path("campaign_results.jsonl"),
        help="append-only results store (default: campaign_results.jsonl)",
    )
    parser.add_argument(
        "--table-out",
        type=Path,
        default=None,
        help="also write the aggregated comparison table to this file",
    )
    parser.add_argument(
        "--plot",
        type=Path,
        default=None,
        help="write a quality-vs-cost scatter plot (needs matplotlib)",
    )
    parser.add_argument(
        "--bench",
        action="store_true",
        help="time the grid serial vs pooled into throwaway stores and "
        "write BENCH_campaign.json (the store flag is ignored)",
    )
    parser.add_argument(
        "--bench-output",
        type=Path,
        default=REPO_ROOT / "BENCH_campaign.json",
        help="where --bench writes its report",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="append per-cell wall-clock to a <store>.profile.jsonl sidecar "
        "(kept outside the byte-deterministic store)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: 2 scenarios x 3 controllers x 1 seed on 2 workers, "
        "temp store, fails on any failed scenario assertion",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        args.scenarios = args.scenarios or list(SMOKE_SCENARIOS)
        if args.controllers == parser.get_default("controllers"):
            args.controllers = SMOKE_CONTROLLERS
        args.seeds = 1
        args.workers = min(args.workers, 2)

    grid = build_grid(args)
    if args.bench:
        return run_bench(grid, args)

    if args.smoke:
        with tempfile.TemporaryDirectory(prefix="campaign-smoke-") as tmp:
            store = ResultsStore(Path(tmp) / "smoke.jsonl")
            report = run_campaign(
                grid, store, workers=args.workers,
                progress=print_progress,
                profile_path=Path(tmp) / "smoke.profile.jsonl" if args.profile else None,
            )
            records = store.load()
            table = render_campaign_table(records)
    else:
        store = ResultsStore(args.store)
        profile_path = (
            args.store.with_suffix(".profile.jsonl") if args.profile else None
        )
        report = run_campaign(
            grid, store, workers=args.workers,
            progress=print_progress,
            profile_path=profile_path,
        )
        records = store.load()
        table = render_campaign_table(records)
        if profile_path is not None:
            print(f"profile -> {profile_path}")

    print(
        f"\ncampaign: {report.total} cells, {report.skipped} resumed, "
        f"{len(report.executed)} executed"
    )
    print(table)
    if args.seeds > 1:
        print()
        print(render_seed_quantile_table(records, metric="p99_ms"))
    if args.table_out is not None:
        args.table_out.write_text(table + "\n")
        print(f"table -> {args.table_out}")
    if args.plot is not None:
        if plot_campaign(records, args.plot):
            print(f"plot -> {args.plot}")
        else:
            print("plot skipped: matplotlib not available")
    if args.smoke and not all(record["assertions_passed"] for record in records):
        print("FAIL: some scenario assertions failed")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
