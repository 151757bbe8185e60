"""Campaign execution: fan cells out over a process pool, append results.

Workers receive the fully scaled, reseeded :class:`ScenarioSpec` (specs are
small and pickle cleanly), run it with ``keep_simulator=False`` -- the
sweep-hygiene mode that severs simulator reference cycles -- and reduce the
run to the same scorecard numbers the SLA layer uses everywhere else.

Two properties the tests pin down:

* **Determinism across pool sizes.**  Futures are consumed in submission
  (grid) order, so the results store receives records in the same order
  whether one worker ran them or eight did -- same grid + master seed
  means byte-identical stores.
* **Resume.**  Cells whose id is already in the store are skipped before
  any worker starts; a campaign killed halfway re-runs only what is
  missing and the final store bytes match an uninterrupted run.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.campaign.grid import CampaignCell, CampaignGrid
from repro.campaign.store import ResultsStore
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.sla.scorecard import scorecard_row
from repro.util.wallclock import wall_perf_counter

__all__ = ["CampaignError", "CampaignReport", "run_campaign"]


class CampaignError(RuntimeError):
    """A campaign-level invariant was violated (e.g. skipping not active)."""


@dataclass
class CampaignReport:
    """What one :func:`run_campaign` pass did."""

    total: int
    skipped: int
    executed: list[dict] = field(default_factory=list)

    @property
    def completed(self) -> int:
        """Cells accounted for after this pass (resumed + newly run)."""
        return self.skipped + len(self.executed)


def _cell_record(cell: CampaignCell, spec: ScenarioSpec) -> dict:
    """Run one cell and reduce it to a store record.

    Module-level so :class:`ProcessPoolExecutor` can pickle it.  The record
    carries no wall-clock or host-specific fields: store bytes must be a
    pure function of grid + master seed (see the determinism tests).
    """
    result = run_scenario(spec, controller=cell.controller, keep_simulator=False)
    row = scorecard_row(result)
    return {
        "cell": cell.cell_id,
        "scenario": cell.scenario,
        "controller": cell.controller,
        "scale": cell.scale.name,
        "load": cell.scale.load,
        "tenant_copies": cell.scale.tenant_copies,
        "seed_index": cell.seed_index,
        "seed": cell.seed,
        # Fixed since a single solver remains; kept so store lines stay
        # byte-identical to earlier campaigns.
        "kernel": "event",
        "skip_active": result.run.skip_active,
        "skip_disabled_reason": result.run.skip_disabled_reason,
        "mean_throughput": row.mean_throughput,
        "violation_minutes": row.violation_minutes,
        "cost": row.cost,
        "machine_minutes": row.machine_minutes,
        "assertions_passed": row.assertions_passed,
        "p95_ms": row.p95_ms,
        "p99_ms": row.p99_ms,
    }


def _cell_record_timed(cell: CampaignCell, spec: ScenarioSpec) -> tuple[dict, float]:
    """:func:`_cell_record` plus the cell's wall-clock seconds.

    The duration rides *alongside* the record, never inside it: wall-clock
    belongs in the profile sidecar, and the store record must stay a pure
    function of grid + master seed.
    """
    started = wall_perf_counter()
    record = _cell_record(cell, spec)
    return record, wall_perf_counter() - started


def run_campaign(
    grid: CampaignGrid,
    store: ResultsStore,
    workers: int = 1,
    progress: Callable[[int, int, str], None] | None = None,
    profile_path: str | Path | None = None,
) -> CampaignReport:
    """Run every grid cell not yet in ``store``; return what happened.

    Every executed run must have had quiescence fast-forwarding engaged: a
    campaign silently losing that speedup to a controller without
    ``next_wakeup`` raises :class:`CampaignError` instead.

    ``profile_path`` appends one ``{"cell": ..., "seconds": ...}`` JSON line
    per executed cell to a *sidecar* file.  Wall-clock is host- and
    run-specific, so it lives outside the results store: the store bytes
    stay a pure function of grid + master seed whether profiling is on or
    off (the serial-vs-pool byte-identity check runs with it enabled).
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    done = store.completed_ids()
    cells = grid.cells()
    pending = [cell for cell in cells if cell.cell_id not in done]
    report = CampaignReport(total=len(cells), skipped=len(cells) - len(pending))
    profile = Path(profile_path) if profile_path is not None else None

    def finish(cell: CampaignCell, record: dict, seconds: float) -> None:
        if not record["skip_active"]:
            raise CampaignError(
                f"cell {cell.cell_id}: quiescence skipping was not active "
                f"({record['skip_disabled_reason'] or 'no reason recorded'})"
            )
        store.append(record)
        report.executed.append(record)
        if profile is not None:
            with profile.open("a") as handle:
                handle.write(
                    json.dumps(
                        {"cell": cell.cell_id, "seconds": round(seconds, 6)},
                        sort_keys=True,
                    )
                    + "\n"
                )
        if progress is not None:
            progress(report.completed, report.total, cell.cell_id)

    if workers == 1 or len(pending) <= 1:
        for cell in pending:
            record, seconds = _cell_record_timed(cell, grid.spec_for(cell))
            finish(cell, record, seconds)
        return report

    with ProcessPoolExecutor(max_workers=workers) as pool:
        # Consume futures in submission (grid) order, not completion order:
        # the store must receive records deterministically for the
        # byte-identity guarantee, and grid order is the natural one.
        futures = [
            (cell, pool.submit(_cell_record_timed, cell, grid.spec_for(cell)))
            for cell in pending
        ]
        for cell, future in futures:
            record, seconds = future.result()
            finish(cell, record, seconds)
    return report
