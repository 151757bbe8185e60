"""Golden-trace serialisation and comparison.

A *trace* is the canonical JSON-able record of one scenario run: metadata,
the sampled time series (throughput / cumulative ops / node count), the
scenario-event annotations, the controller's decision log and the end-state
summary.  Traces serve two purposes:

* **regression goldens** -- committed under ``tests/golden/`` and diffed on
  every test run, locking down the end-to-end behaviour of the whole
  controller stack (simulator, monitor, decision maker, actuator, IaaS);
* **solver equivalence** -- the solver and the test suite's reference
  oracle must produce traces that agree within 1e-6 relative tolerance.

Serialisation is canonical (sorted keys, fixed float rounding), so two
identical-seed runs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.scenarios.runner import ScenarioRunResult, run_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.simulation.latency import BINS_PER_DECADE, MIN_MS, WEIGHT_SCALE

#: Trace schema version; bump when the shape changes and regenerate goldens.
#: Format 2 added the ``assertions`` verdict list (scenario assertions DSL).
#: Format 3 added the SLA sections: per-tenant latency/throughput series
#: (``tenant_series``), SLO verdicts (``slo``) and the cost envelope
#: (``cost``).
#: Format 4 added native throughput units (multi-workload tenants): each
#: ``slo`` entry carries the ``unit`` its floor is declared in, and
#: ``tenant_units`` maps every tenant binding to its native unit label
#: (``ops/s`` for YCSB, ``tpmC`` for TPC-C).
#: Format 5 made the latency pipeline percentile-native: ``tenant_series``
#: rows grew per-window p95/p99 columns (``null`` when distributions are
#: disabled), and ``latency_distributions`` serialises each tenant's
#: whole-run merged :class:`~repro.simulation.latency.LatencySummary`
#: (sparse ``[bin, count]`` pairs plus headline quantiles).
TRACE_FORMAT = 5

#: Controllers every canned scenario is goldened under.
GOLDEN_CONTROLLERS = ("met", "tiramola")

#: Scenarios additionally goldened under the planner controller.  The
#: planner is calibration-driven, so its catalog coverage is pinned where
#: its declared SLO/cost assertions live (scale-up on predicted breach in
#: ``flash_crowd``, consolidation of paid-for-but-unused headroom in the
#: steady scenarios) rather than across all 14 entries -- the full matrix
#: would spend the golden suite's wall-clock budget re-proving runs where
#: the planner holds the initial cluster and the trace is near-identical
#: to tiramola's.
PLANNER_GOLDEN_SCENARIOS = ("data_growth", "flash_crowd", "tpcc_steady")


def golden_combos() -> list[tuple[str, str]]:
    """Every (scenario, controller) pair with a committed golden."""
    # Imported lazily: the catalog imports the assertion DSL, which reaches
    # back into scenario machinery this module sits beside.
    from repro.scenarios.catalog import CANNED_SCENARIOS

    combos = [
        (scenario, controller)
        for scenario in sorted(CANNED_SCENARIOS)
        for controller in GOLDEN_CONTROLLERS
    ]
    combos += [(scenario, "planner") for scenario in PLANNER_GOLDEN_SCENARIOS]
    return sorted(combos)


def golden_name(scenario: str, controller: str) -> str:
    """File name of the committed golden for one scenario/controller pair."""
    return f"{scenario}__{controller}.json"


def paper_traces() -> dict[str, dict]:
    """Trace of every paper run (``tests/golden/paper/``), by golden name.

    Each spec of :data:`repro.scenarios.paper.PAPER_RUNS` at its declared
    seed under its controller, plus Table 2's setting (iii), which starts
    from the layout the setting-(ii) run converged to.
    """
    # Imported lazily, like the catalog in golden_combos.
    from repro.scenarios.paper import PAPER_RUNS, TABLE2, converged

    traces = {}
    for spec, controller in PAPER_RUNS:
        setting_ii = spec is TABLE2 and controller == "met"
        result = run_scenario(spec, controller=controller, keep_simulator=setting_ii)
        traces[golden_name(spec.name, controller)] = result_trace(result)
        if setting_ii:
            upper = run_scenario(converged(spec, result), keep_simulator=False)
            traces[golden_name(upper.spec.name, "none")] = result_trace(upper)
    return traces


#: Decimal places kept for floats in a trace.  Coarse enough that canonical
#: JSON is stable and readable, fine enough (micro-op/s on kilo-op/s series)
#: that a 1e-6 relative solver divergence is still visible.
FLOAT_DECIMALS = 6
#: Decimal places kept for the per-tenant series.  Deliberately coarser than
#: the cluster series: tenant series are the bulkiest trace section (one row
#: per tenant per sample), milli-op/s / micro-second precision says nothing
#: about service quality, and the golden suite's oracle-agreement check
#: compares them with its own looser tolerance.
TENANT_SERIES_DECIMALS = 3


class TraceFormatError(ValueError):
    """A trace file's schema version does not match this build's."""


def _round(value: float) -> float:
    """Canonical float rounding for traces (also kills -0.0)."""
    rounded = round(value, FLOAT_DECIMALS)
    return 0.0 if rounded == 0 else rounded


def _round_coarse(value: float) -> float:
    """Capped-precision rounding for the per-tenant series."""
    rounded = round(value, TENANT_SERIES_DECIMALS)
    return 0.0 if rounded == 0 else rounded


def result_trace(result: ScenarioRunResult) -> dict:
    """The canonical trace dict of a finished scenario run."""
    run = result.run
    cost = result.cost
    return {
        "format": TRACE_FORMAT,
        "scenario": result.spec.name,
        "seed": result.spec.seed,
        "controller": result.controller,
        # Fixed since a single solver remains; dropped at the next
        # TRACE_FORMAT bump.
        "kernel": "event",
        "duration_minutes": _round(result.spec.duration_minutes),
        "series": [
            {
                "minute": _round(point.minute),
                "throughput": _round(point.throughput),
                "cumulative_ops": _round(point.cumulative_ops),
                "nodes": point.nodes,
            }
            for point in run.series
        ],
        "annotations": [
            {
                "minute": _round(annotation.minute),
                "label": annotation.label,
                "detail": annotation.detail,
            }
            for annotation in run.annotations
        ],
        "decisions": [
            {
                "minute": _round(decision["minute"]),
                "kind": decision["kind"],
                "detail": decision["detail"],
            }
            for decision in result.decisions
        ],
        "assertions": [
            {
                "assertion": verdict.assertion,
                "passed": verdict.passed,
                "detail": verdict.detail,
            }
            for verdict in result.assertions
        ],
        # Per-tenant quality series as compact
        # [minute, ops/s, latency-ms, p95-ms, p99-ms] rows (capped precision;
        # see TENANT_SERIES_DECIMALS).  The percentile columns are null when
        # the run recorded no latency distributions.
        "tenant_series": {
            name: [
                [
                    _round(point.minute),
                    _round_coarse(point.throughput),
                    _round_coarse(point.latency_ms),
                    None if point.p95_ms is None else _round_coarse(point.p95_ms),
                    None if point.p99_ms is None else _round_coarse(point.p99_ms),
                ]
                for point in points
            ]
            for name, points in sorted(run.tenant_series.items())
        },
        # Whole-run merged latency distribution per tenant: the summary's
        # sparse integer histogram (exact, mergeable) plus headline
        # quantiles.  Counts are integers, so this section is byte-exact
        # across solver loops.
        "latency_distributions": {
            name: {
                "bins_per_decade": BINS_PER_DECADE,
                "min_ms": MIN_MS,
                "weight_scale": WEIGHT_SCALE,
                "counts": summary.to_pairs(),
                "p50": _round_coarse(summary.quantile(0.50)),
                "p95": _round_coarse(summary.quantile(0.95)),
                "p99": _round_coarse(summary.quantile(0.99)),
            }
            for name, summary in sorted(run.tenant_distributions.items())
        },
        "slo": [
            {
                "slo": report.slo.describe(),
                "tenant": report.slo.tenant,
                "unit": report.slo.unit,
                "samples": report.samples,
                "violations": len(report.violations),
                "violation_minutes": _round(report.violation_minutes),
                "satisfied": report.satisfied,
            }
            for report in result.slo_reports
        ],
        # Native throughput unit of every tenant the spec declares (initial
        # tenants and mid-run arrivals), keyed by binding name.
        "tenant_units": dict(sorted(result.tenant_units().items())),
        "cost": {
            "pricing": cost.pricing,
            "total": _round(cost.total),
            "machine_minutes": {
                flavor: _round(minutes)
                for flavor, minutes in sorted(result.machine_minute_ledger.items())
            },
        },
        "per_tenant_throughput": {
            name: _round(value)
            for name, value in sorted(run.per_workload_throughput.items())
        },
        "total_operations": _round(run.total_operations),
        "final_nodes": run.final_nodes,
        "machine_minutes": _round(run.machine_minutes),
    }


def scenario_trace(spec: ScenarioSpec, controller: str = "met") -> dict:
    """Run ``spec`` and return its trace."""
    result = run_scenario(spec, controller=controller, keep_simulator=False)
    return result_trace(result)


def trace_to_json(trace: dict) -> str:
    """Canonical serialisation: byte-identical for identical runs."""
    return json.dumps(trace, indent=1, sort_keys=True) + "\n"


def load_trace(path) -> dict:
    """Load a committed trace, refusing schema versions this build can't read.

    Raises :class:`TraceFormatError` with a regenerate hint when the file
    carries a different ``format`` -- a format-2 golden under a format-3
    build is *stale*, not subtly drifted, and the failure mode should say
    so instead of producing hundreds of spurious value diffs.
    """
    path = Path(path)
    data = json.loads(path.read_text())
    observed = data.get("format")
    if observed != TRACE_FORMAT:
        raise TraceFormatError(
            f"{path.name} is trace format {observed!r}, this build reads "
            f"format {TRACE_FORMAT}; regenerate goldens with "
            "`PYTHONPATH=src python scripts/regen_goldens.py` and commit the diff"
        )
    return data


def diff_traces(
    golden: dict,
    observed: dict,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-9,
) -> list[str]:
    """Differences between two traces, as human-readable paths.

    Floats compare with tolerances (so goldens survive harmless last-digit
    drift and the oracle-equivalence check can use 1e-6); everything else
    must match exactly.  Returns an empty list when the traces agree.
    """
    differences: list[str] = []
    _diff("", golden, observed, rel_tol, abs_tol, differences)
    return differences


def _diff(path: str, golden, observed, rel_tol: float, abs_tol: float, out: list[str]) -> None:
    if isinstance(golden, dict) and isinstance(observed, dict):
        for key in sorted(set(golden) | set(observed)):
            where = f"{path}.{key}" if path else str(key)
            if key not in golden:
                out.append(f"{where}: unexpected key (not in golden)")
            elif key not in observed:
                out.append(f"{where}: missing key")
            else:
                _diff(where, golden[key], observed[key], rel_tol, abs_tol, out)
        return
    if isinstance(golden, list) and isinstance(observed, list):
        if len(golden) != len(observed):
            out.append(f"{path}: length {len(observed)} != golden {len(golden)}")
            return
        for index, (g, o) in enumerate(zip(golden, observed)):
            _diff(f"{path}[{index}]", g, o, rel_tol, abs_tol, out)
        return
    if isinstance(golden, bool) or isinstance(observed, bool):
        # bool is an int subclass; compare exactly, before the number branch.
        if golden is not observed:
            out.append(f"{path}: {observed!r} != golden {golden!r}")
        return
    if isinstance(golden, (int, float)) and isinstance(observed, (int, float)):
        if not math.isclose(golden, observed, rel_tol=rel_tol, abs_tol=abs_tol):
            out.append(f"{path}: {observed!r} != golden {golden!r}")
        return
    if golden != observed:
        out.append(f"{path}: {observed!r} != golden {golden!r}")
