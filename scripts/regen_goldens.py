#!/usr/bin/env python3
"""Regenerate (or verify) the committed golden traces under tests/golden/.

Two sets: the scenario catalog (tests/golden/*.json) and the paper's
evaluation runs (tests/golden/paper/*.json, see repro.scenarios.paper).

Run after an *intentional* behaviour change (new decision logic, retuned
scenario, trace schema bump):

    PYTHONPATH=src python scripts/regen_goldens.py

then review the diff -- every changed number is a claim that the new
behaviour is the correct one.  The golden test suite will fail loudly until
regenerated goldens are committed alongside the change that moved them.

CI runs the drift gate:

    PYTHONPATH=src python scripts/regen_goldens.py --check

which regenerates every trace in memory and exits non-zero if any committed
golden differs (or is missing, or is stale -- a file no scenario produces).
Value drift and *schema-format* staleness are reported distinctly: a golden
still carrying an older TRACE_FORMAT needs a regen commit, not a hunt
through hundreds of spurious value diffs.  ``--diff-report PATH`` writes a
unified diff of every out-of-sync golden (CI uploads it as a workflow
artifact so the drift is reviewable without reproducing the run).
"""

from __future__ import annotations

import argparse
import difflib
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.scenarios import CANNED_SCENARIOS, scenario_trace, trace_to_json  # noqa: E402
from repro.scenarios.trace import (  # noqa: E402
    TRACE_FORMAT,
    golden_combos,
    golden_name,
    paper_traces,
)

GOLDEN_DIR = REPO_ROOT / "tests" / "golden"
PAPER_DIR = GOLDEN_DIR / "paper"


def expected_payloads() -> dict[Path, str]:
    """Canonical serialisation of every golden.

    The catalog combo list is the catalog x GOLDEN_CONTROLLERS matrix plus
    the planner-goldened subset (see ``trace.golden_combos``); the paper
    runs are those of ``trace.paper_traces``.
    """
    payloads = {
        GOLDEN_DIR / golden_name(scenario, controller): trace_to_json(
            scenario_trace(CANNED_SCENARIOS[scenario], controller)
        )
        for scenario, controller in golden_combos()
    }
    for name, trace in paper_traces().items():
        payloads[PAPER_DIR / name] = trace_to_json(trace)
    return payloads


def regenerate() -> None:
    """Rewrite every golden, naming the top-level keys each update moved."""
    PAPER_DIR.mkdir(parents=True, exist_ok=True)
    for path, payload in expected_payloads().items():
        committed = path.read_text() if path.exists() else ""
        path.write_text(payload)
        if committed == payload:
            print(f"unchanged {_display(path)}")
        else:
            keys = ", ".join(changed_keys(committed, payload))
            print(f"updated   {_display(path)} ({keys})")


def _display(path: Path) -> Path:
    """Repo-relative rendering of a golden path (as-is when outside the repo)."""
    try:
        return path.relative_to(REPO_ROOT)
    except ValueError:
        return path


#: Sentinel for committed goldens that do not parse as JSON at all.
_UNPARSEABLE = object()


def changed_keys(committed: str, payload: str) -> list[str]:
    """Sorted top-level trace keys whose values differ between two goldens.

    A key present on one side only counts as changed; a committed text that
    is missing or not a JSON object differs in every key of ``payload``.
    """
    try:
        old = json.loads(committed)
    except json.JSONDecodeError:
        old = {}
    if not isinstance(old, dict):
        old = {}
    new = json.loads(payload)
    return sorted(
        key
        for key in old.keys() | new.keys()
        if key not in old or key not in new or old[key] != new[key]
    )


def _committed_format(text: str) -> object:
    """The ``format`` field of a committed golden.

    ``None`` means the file parses but carries no format tag (a pre-format
    schema, handled as stale); :data:`_UNPARSEABLE` means the JSON itself is
    damaged (truncated write, conflict markers).
    """
    try:
        return json.loads(text).get("format")
    except (json.JSONDecodeError, AttributeError):
        return _UNPARSEABLE


def check(diff_report: Path | None = None) -> int:
    expected = expected_payloads()
    problems: list[str] = []
    diffs: list[str] = []
    for path, payload in expected.items():
        name = _display(path)
        if not path.exists():
            problems.append(f"missing       {name}")
            continue
        committed = path.read_text()
        if committed == payload:
            continue
        committed_format = _committed_format(committed)
        if committed_format is _UNPARSEABLE:
            # Damaged JSON (truncated write, conflict markers) is not a
            # schema-version problem: label it as such and keep the full
            # diff so the damage is visible in the report.
            problems.append(f"unparseable   {name}")
        elif committed_format != TRACE_FORMAT:
            # Schema staleness, reported distinctly from value drift: the
            # file predates a trace-format bump and *must* be regenerated;
            # diffing its values against the new schema is noise, so the
            # report gets a one-line marker instead of a unified diff.
            problems.append(
                f"stale-format  {name} (format {committed_format!r}, "
                f"expected {TRACE_FORMAT})"
            )
            diffs.append(
                f"# {name}: stale trace format {committed_format!r} "
                f"(expected {TRACE_FORMAT}); value diff suppressed\n"
            )
            continue
        else:
            problems.append(f"drifted       {name}")
        diffs.append(
            "".join(
                difflib.unified_diff(
                    committed.splitlines(keepends=True),
                    payload.splitlines(keepends=True),
                    fromfile=f"committed/{name}",
                    tofile=f"expected/{name}",
                )
            )
        )
    committed_files = set(GOLDEN_DIR.glob("*.json")) | set(PAPER_DIR.glob("*.json"))
    for orphan in sorted(committed_files - set(expected)):
        problems.append(f"orphaned      {_display(orphan)}")
    if diff_report is not None:
        diff_report.write_text("".join(diffs))
        if diffs:
            print(f"wrote drift diff to {diff_report}")
    if problems:
        print("golden traces out of sync with the catalog and paper runs:")
        for problem in problems:
            print(f"  {problem}")
        print(
            "regenerate with `PYTHONPATH=src python scripts/regen_goldens.py` "
            "and commit the diff"
        )
        return 1
    print(f"all {len(expected)} goldens in sync")
    return 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify committed goldens instead of rewriting them",
    )
    parser.add_argument(
        "--diff-report",
        type=Path,
        default=None,
        metavar="PATH",
        help="with --check: write a unified diff of out-of-sync goldens to PATH",
    )
    args = parser.parse_args()
    if args.check:
        raise SystemExit(check(diff_report=args.diff_report))
    regenerate()


if __name__ == "__main__":
    main()
