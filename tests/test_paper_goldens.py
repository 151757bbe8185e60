"""Golden traces of the paper's evaluation runs (``tests/golden/paper/``).

Every spec of :mod:`repro.scenarios.paper` runs under its controller at its
declared seed, plus Table 2's setting (iii), which starts from the layout
the setting-(ii) run converged to (see ``trace.paper_traces``).  Each trace
is diffed against its committed golden, so the runs behind the paper's
tables and figures are locked down like the scenario catalog.  If a change
moves them on purpose, regenerate with
``PYTHONPATH=src python scripts/regen_goldens.py`` and commit the diff.

The module keeps its own wall-clock budget, separate from the catalog
suite's (``tests/test_golden_traces.py``).
"""

import json
import os
from functools import lru_cache
from pathlib import Path

import pytest

from repro.scenarios import diff_traces, load_trace, trace_to_json
from repro.scenarios.paper import SHUTDOWN_SCHEDULE
from repro.scenarios.trace import paper_traces
from repro.util.wallclock import wall_perf_counter

PAPER_DIR = Path(__file__).parent / "golden" / "paper"

#: Committed-golden comparison, as for the catalog goldens.
GOLDEN_REL_TOL = 1e-9

#: Wall-clock budget for this module (seconds).  The paper runs cost ~5 s
#: on a 2-vCPU host; override with PAPER_GOLDEN_BUDGET_SECONDS where the
#: baseline differs (CI sets a looser bound for shared runners).
SUITE_BUDGET_SECONDS = float(os.environ.get("PAPER_GOLDEN_BUDGET_SECONDS", "9.0"))

COMMITTED = sorted(path.name for path in PAPER_DIR.glob("*.json"))

_suite_clock: dict[str, float] = {}


@pytest.fixture(autouse=True)
def _guarded(determinism_guard):
    """The paper runs replay byte-identically from their seeds, so they
    run under the runtime determinism sanitizer like the catalog."""
    yield


@pytest.fixture(scope="module", autouse=True)
def _suite_timer():
    _suite_clock.setdefault("start", wall_perf_counter())
    yield


@lru_cache(maxsize=None)
def _observed() -> dict[str, dict]:
    """Every paper trace, run once and shared by the tests below."""
    return paper_traces()


class TestPaperGoldens:
    @pytest.mark.parametrize("name", COMMITTED)
    def test_trace_matches_committed_golden(self, name):
        golden = load_trace(PAPER_DIR / name)
        observed = _observed()[name]
        differences = diff_traces(golden, observed, rel_tol=GOLDEN_REL_TOL, abs_tol=GOLDEN_REL_TOL)
        assert not differences, (
            f"paper run {name} diverged from its golden trace "
            f"({len(differences)} differences):\n  " + "\n  ".join(differences[:20])
            + "\nIf the change is intentional, regenerate with "
            "`PYTHONPATH=src python scripts/regen_goldens.py` and commit the diff."
        )

    def test_golden_dir_matches_paper_runs_exactly(self):
        """One golden per paper run: no orphans, no gaps."""
        expected = set(_observed())
        committed = set(COMMITTED)
        assert committed == expected, (
            f"missing: {sorted(expected - committed)}; "
            f"orphaned: {sorted(committed - expected)}"
        )

    def test_goldens_are_canonically_serialised(self):
        for name in COMMITTED:
            text = (PAPER_DIR / name).read_text()
            assert text == trace_to_json(json.loads(text)), f"{name} is not canonical"

    def test_figure6_tenants_leave_on_schedule(self):
        """Phase 2 is scenario events, visible in both systems' traces."""
        expected = [
            (minute, f"tenant-departure:{tenant}")
            for minute, tenants in SHUTDOWN_SCHEDULE.items()
            for tenant in tenants
        ]
        for name in ("figure6_met__met.json", "figure6_tiramola__tiramola.json"):
            annotations = load_trace(PAPER_DIR / name)["annotations"]
            assert [(a["minute"], a["label"]) for a in annotations] == expected


class TestPaperGoldenBudget:
    """Defined last in the module so its test runs after the whole suite."""

    def test_suite_stays_inside_wall_clock_budget(self):
        elapsed = wall_perf_counter() - _suite_clock["start"]
        assert elapsed <= SUITE_BUDGET_SECONDS, (
            f"paper golden suite took {elapsed:.1f}s, budget {SUITE_BUDGET_SECONDS:.1f}s "
            "(raise it deliberately via PAPER_GOLDEN_BUDGET_SECONDS)"
        )
