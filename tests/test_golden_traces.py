"""Golden-trace regression suite: the controller stack, locked down.

Every canned scenario runs at reduced scale under both MeT and tiramola
(plus the planner controller on its goldened subset, see
``trace.PLANNER_GOLDEN_SCENARIOS``); the resulting decision/throughput
trace is diffed against the committed golden under ``tests/golden/``.  Any change to the simulator kernel, the
monitor, the decision maker, the actuator, the IaaS model or the scenario
engine that shifts end-to-end behaviour fails here -- if the shift is
intentional, regenerate with ``PYTHONPATH=src python scripts/regen_goldens.py``
and commit the diff.

Also enforced here:

* two identical-seed runs serialise to byte-identical traces;
* the solver and the seed reference oracle agree on the golden scenarios
  within the 1e-6 relative tolerance the kernel-equivalence suite
  established;
* the catalog demonstrates every scenario event family.
"""

import copy
import json
import os
from functools import lru_cache
from pathlib import Path

import pytest

from repro.scenarios import (
    CANNED_SCENARIOS,
    diff_traces,
    load_trace,
    scenario_trace,
    trace_to_json,
)
from repro.scenarios.trace import (
    GOLDEN_CONTROLLERS,
    PLANNER_GOLDEN_SCENARIOS,
    TENANT_SERIES_DECIMALS,
    golden_combos,
    golden_name,
)
from repro.util.wallclock import wall_perf_counter
from solver_oracles import ReferenceSolver, installed

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Committed-golden comparison: tight, tolerating only float formatting
#: noise, since goldens are regenerated on the same code path.
GOLDEN_REL_TOL = 1e-9
#: Solver-vs-reference comparison (matches tests/test_kernel_equivalence).
KERNEL_REL_TOL = 1e-6
#: Tenant-series kernel comparison: the series are serialised at capped
#: precision (TENANT_SERIES_DECIMALS), so a benign 1e-6 kernel divergence
#: can straddle a rounding boundary and show as one full rounding step.
#: math.isclose takes the max of the two bounds (not their sum), so the
#: relative bound alone must absorb a 1e-6 divergence *plus* one rounding
#: step on kilo-op/s values (~1e-3/2400 ≈ 4e-7 + 1e-6): 1e-4 does with two
#: orders of headroom while a real kernel divergence still lands far above
#: it; the absolute bound covers near-zero latencies where the relative
#: bound collapses.
TENANT_SERIES_REL_TOL = 1e-4
TENANT_SERIES_ABS_TOL = 2.0 * 10.0 ** -TENANT_SERIES_DECIMALS

COMBOS = golden_combos()

#: Scenario/controller pairs double-run under the reference oracle for the
#: agreement check.  Equivalence is a property of the *solver*, not
#: of every catalog entry, so the matrix is thinned to fit the golden
#: suite's time budget (~3.5 s) while keeping the coverage that matters:
#:
#: * ``long_horizon`` is excluded outright -- two simulated hours under the
#:   ~7x-slower reference oracle would dominate the budget, and
#:   tests/test_kernel_equivalence.py already locks the property down;
#: * every other scenario is double-run under exactly one controller,
#:   alternating MeT/tiramola down the sorted catalog, so every event
#:   family crosses both solvers and both actuation paths (MeT's
#:   reconfigure-first plans, tiramola's add/remove + balancer daemon)
#:   stay exercised without running the full cross product.
KERNEL_COMBOS = [
    (scenario, GOLDEN_CONTROLLERS[index % len(GOLDEN_CONTROLLERS)])
    for index, scenario in enumerate(
        scenario for scenario in sorted(CANNED_SCENARIOS) if scenario != "long_horizon"
    )
] + [
    # One planner crossing so the calibrated controller's decision path is
    # exercised under the reference oracle too (a cheap 10-minute scenario;
    # the rest of the planner subset would re-prove the same property).
    ("data_growth", "planner"),
]


#: Wall-clock budget for this module (seconds).  The golden suite is the
#: bulk of the tier-1 bill, and ROADMAP tracks its budget explicitly; the
#: guard fails when catalog growth silently erodes it instead of letting
#: the suite creep.  Override with GOLDEN_SUITE_BUDGET_SECONDS on hardware
#: whose baseline differs from the ~4.8 s this catalog costs here (CI sets
#: a looser bound for shared-runner variance).  Raised 5.0 -> 6.0 when the
#: planner controller grew the matrix (three planner goldens plus one
#: reference-oracle crossing, ~+1.2 s) -- a deliberate spend, not creep.
SUITE_BUDGET_SECONDS = float(os.environ.get("GOLDEN_SUITE_BUDGET_SECONDS", "6.0"))

_suite_clock: dict[str, float] = {}


@pytest.fixture(autouse=True)
def _guarded(determinism_guard):
    """Every golden test runs under the runtime determinism sanitizer.

    These tests *are* the byte-reproducibility claim, so wall-clock reads
    and global-RNG draws anywhere under them raise DeterminismViolation
    (the budget bookkeeping below measures through repro.util.wallclock,
    the audited door the guard leaves open).
    """
    yield


@pytest.fixture(scope="module", autouse=True)
def _suite_timer():
    """Start the module's wall-clock on its first test."""
    _suite_clock.setdefault("start", wall_perf_counter())
    yield


@lru_cache(maxsize=None)
def _default_trace(scenario: str, controller: str) -> dict:
    """One solver run per combo, shared by the golden and oracle
    tests (runs are deterministic, so caching cannot hide a
    divergence)."""
    return scenario_trace(CANNED_SCENARIOS[scenario], controller)


def _load_golden(scenario: str, controller: str) -> dict:
    path = GOLDEN_DIR / golden_name(scenario, controller)
    assert path.exists(), (
        f"missing golden {path.name}; generate it with "
        "`PYTHONPATH=src python scripts/regen_goldens.py`"
    )
    # load_trace refuses stale schema versions with a regenerate hint, so a
    # format bump fails here with one clear message per golden instead of
    # hundreds of spurious value diffs.
    return load_trace(path)


class TestGoldenTraces:
    @pytest.mark.parametrize("scenario,controller", COMBOS)
    def test_trace_matches_committed_golden(self, scenario, controller):
        golden = _load_golden(scenario, controller)
        observed = _default_trace(scenario, controller)
        differences = diff_traces(
            golden, observed, rel_tol=GOLDEN_REL_TOL, abs_tol=GOLDEN_REL_TOL
        )
        assert not differences, (
            f"{scenario} under {controller} diverged from its golden trace "
            f"({len(differences)} differences):\n  " + "\n  ".join(differences[:20])
            + "\nIf the change is intentional, regenerate with "
            "`PYTHONPATH=src python scripts/regen_goldens.py` and commit the diff."
        )

    @pytest.mark.parametrize("scenario,controller", KERNEL_COMBOS)
    def test_kernels_agree(self, scenario, controller):
        """The solver and the seed reference oracle tell the same story.
        Reuse-vs-no-reuse byte identity is locked down separately by
        tests/test_kernel_soak.py."""
        spec = CANNED_SCENARIOS[scenario]
        fast = copy.deepcopy(_default_trace(scenario, controller))
        with installed(ReferenceSolver):
            reference = scenario_trace(spec, controller)
        # Assertion details embed throughput values as rounded strings; a
        # 1e-6 kernel divergence can flip the last printed digit, so compare
        # the verdicts (name + passed) and drop the prose.
        for trace in (fast, reference):
            for verdict in trace["assertions"]:
                verdict.pop("detail")
        # Percentile columns and the histogram section are bin-granular
        # (~12% per bin): a benign 1e-6 float divergence that lands a value
        # on the far side of a bin edge shifts them a whole bin, far past
        # any fair float tolerance.  Drop them here -- event-vs-fast byte
        # identity of the full distributions is locked down by the soak.
        for trace in (fast, reference):
            trace.pop("latency_distributions")
            trace["tenant_series"] = {
                name: [row[:3] for row in rows]
                for name, rows in trace["tenant_series"].items()
            }
        # Tenant series are serialised at capped precision, where a benign
        # kernel divergence can flip a rounding boundary; compare them
        # separately at rounding-step tolerance.
        differences = diff_traces(
            {"tenant_series": fast.pop("tenant_series")},
            {"tenant_series": reference.pop("tenant_series")},
            rel_tol=TENANT_SERIES_REL_TOL,
            abs_tol=TENANT_SERIES_ABS_TOL,
        )
        differences += diff_traces(
            fast, reference, rel_tol=KERNEL_REL_TOL, abs_tol=KERNEL_REL_TOL
        )
        assert not differences, (
            f"kernels diverged on {scenario} under {controller}:\n  "
            + "\n  ".join(differences[:20])
        )

    @pytest.mark.parametrize(
        "scenario,controller",
        [
            ("flash_crowd", "tiramola"),
            # The heterogeneous (YCSB + TPC-C) catalog entry: determinism
            # must survive the tenant-protocol indirection too.
            ("mixed_tenancy", "met"),
            # The planner's served-rate sampling and model predictions must
            # replay byte-identically from the same seed as well.
            ("data_growth", "planner"),
        ],
    )
    def test_identical_seed_runs_are_byte_identical(self, scenario, controller):
        spec = CANNED_SCENARIOS[scenario]
        first = trace_to_json(scenario_trace(spec, controller))
        second = trace_to_json(scenario_trace(spec, controller))
        assert first == second
        # Lint rule D5's dynamic twin: a fresh trace is canonical JSON.
        assert first == json.dumps(json.loads(first), indent=1, sort_keys=True) + "\n"

    def test_goldens_are_canonically_serialised(self):
        """Committed files are exactly what trace_to_json would write."""
        for scenario, controller in COMBOS:
            path = GOLDEN_DIR / golden_name(scenario, controller)
            golden = json.loads(path.read_text())
            assert path.read_text() == trace_to_json(golden), (
                f"{path.name} is not canonically serialised; regenerate it"
            )

    def test_golden_dir_matches_catalog_exactly(self):
        """One golden per (scenario, controller) — no orphans, no gaps.

        Mirrors the `regen_goldens.py --check` orphan/missing detection in
        tier-1, so a scenario added without goldens (or renamed without
        cleanup) fails here, not just in CI's drift gate.
        """
        expected = {golden_name(s, c) for s, c in COMBOS}
        committed = {p.name for p in GOLDEN_DIR.glob("*.json")}
        assert committed == expected, (
            f"missing: {sorted(expected - committed)}; "
            f"orphaned: {sorted(committed - expected)}"
        )


class TestCatalogCoverage:
    def test_every_event_family_is_demonstrated(self):
        """The catalog exercises all scenario event types at least once."""
        families = {
            type(event).__name__
            for spec in CANNED_SCENARIOS.values()
            for event in spec.events
        }
        assert {
            "DiurnalLoad",
            "FlashCrowd",
            "TenantArrival",
            "TenantDeparture",
            "MixShift",
            "NodeCrash",
            "NodeRecovery",
            "NodeSlowdown",
            "DataGrowthBurst",
        } <= families

    def test_goldens_show_scenario_effects(self):
        """Each golden actually recorded its scenario's events firing.

        A scenario that declares no events (``tpcc_steady`` is steady by
        design) legitimately records no annotations."""
        for scenario, controller in COMBOS:
            golden = _load_golden(scenario, controller)
            if CANNED_SCENARIOS[scenario].events:
                assert golden["annotations"], f"{scenario} golden has no annotations"
            assert golden["series"], f"{scenario} golden has no series"

    def test_catalog_assertions_hold_in_goldens(self):
        """Declared controller expectations pass in every committed golden."""
        scenarios_with_assertions = set()
        for scenario, controller in COMBOS:
            golden = _load_golden(scenario, controller)
            for verdict in golden["assertions"]:
                scenarios_with_assertions.add(scenario)
                assert verdict["passed"], (
                    f"{scenario} under {controller} violates its declared "
                    f"expectation {verdict['assertion']}: {verdict['detail']}"
                )
        assert len(scenarios_with_assertions) >= 2, (
            "the catalog should declare expectations on at least two scenarios"
        )

    def test_goldens_carry_tenant_series_and_cost(self):
        """Every golden records per-tenant quality series and a cost envelope."""
        for scenario, controller in COMBOS:
            golden = _load_golden(scenario, controller)
            tenants = set(golden["per_tenant_throughput"])
            assert tenants <= set(golden["tenant_series"]), (
                f"{scenario}/{controller}: tenants missing from tenant_series"
            )
            for name, rows in golden["tenant_series"].items():
                assert rows, f"{scenario}/{controller}: empty series for {name}"
                # [minute, ops/s, latency, p95, p99]; the percentile columns
                # are null only when distributions were disabled, which a
                # golden run never does.
                assert all(len(row) == 5 for row in rows)
                assert all(row[3] is not None and row[4] is not None for row in rows)
                assert name in golden["latency_distributions"], (
                    f"{scenario}/{controller}: no merged distribution for {name}"
                )
            assert golden["cost"]["pricing"], f"{scenario}/{controller}: no pricing"
            assert golden["cost"]["total"] > 0.0
            # The billing ledger is the node-online time the harness counted:
            # simulator nodes are the machines a run rents.
            ledger_total = sum(golden["cost"]["machine_minutes"].values())
            assert ledger_total == pytest.approx(golden["machine_minutes"]), (
                f"{scenario}/{controller}: ledger differs from machine-minutes"
            )

    def test_catalog_declares_service_quality_bounds(self):
        """At least six scenarios put SLO or cost bounds on the controllers."""
        bounded = set()
        for scenario, controller in COMBOS:
            golden = _load_golden(scenario, controller)
            if golden["slo"]:
                bounded.add(scenario)
            for verdict in golden["assertions"]:
                if verdict["assertion"].startswith(("SLOViolationsBelow", "CostCeiling")):
                    bounded.add(scenario)
        assert len(bounded) >= 6, (
            f"only {sorted(bounded)} declare SLO/cost expectations"
        )

    def test_catalog_declares_percentile_slos(self):
        """At least three scenarios promise tail latency, under both
        controllers, and judge that tenant's SLO with a passing
        ``SLOViolationsBelow`` verdict serialised in the goldens."""
        declared = set()
        for scenario, controller in COMBOS:
            golden = _load_golden(scenario, controller)
            tail_tenants = {
                entry["tenant"]
                for entry in golden["slo"]
                if "p95<=" in entry["slo"] or "p99<=" in entry["slo"]
            }
            if any(
                verdict["passed"]
                and verdict["assertion"].startswith(
                    (
                        f"SLOViolationsBelow(tenant={tenant!r})",
                        f"SLOViolationsBelow(tenant={tenant!r}, ",
                    )
                )
                for tenant in tail_tenants
                for verdict in golden["assertions"]
            ):
                declared.add((scenario, controller))
        scenarios = {scenario for scenario, _ in declared}
        assert len(scenarios) >= 3, (
            f"only {sorted(scenarios)} declare percentile SLOs with verdicts"
        )
        for scenario in scenarios:
            for controller in GOLDEN_CONTROLLERS:
                assert (scenario, controller) in declared, (
                    f"{scenario} lacks percentile coverage under {controller}"
                )

    def test_slo_verdicts_visible_in_goldens(self):
        """Somewhere in the catalog an SLO actually accrues violation-minutes
        (and is still inside its declared budget) -- the verdicts carry
        signal, not just vacuous passes."""
        nonzero = 0
        for scenario, controller in COMBOS:
            golden = _load_golden(scenario, controller)
            for entry in golden["slo"]:
                assert entry["samples"] > 0 or entry["satisfied"]
                if entry["violation_minutes"] > 0:
                    nonzero += 1
        assert nonzero >= 1

    def test_controllers_act_somewhere_in_the_catalog(self):
        """The catalog is stressful enough that every controller takes actions."""
        met_plans = 0
        tiramola_adds = 0
        for scenario in CANNED_SCENARIOS:
            met = _load_golden(scenario, "met")
            tiramola = _load_golden(scenario, "tiramola")
            met_plans += sum(1 for d in met["decisions"] if d["kind"] == "plan")
            tiramola_adds += sum(
                1 for d in tiramola["decisions"] if d["kind"] == "add_node"
            )
        assert met_plans >= 3
        assert tiramola_adds >= 3
        # The planner subset must show both directions of model-driven
        # scaling: buying capacity against a predicted breach and giving
        # back paid-for-but-unused headroom.
        planner_adds = 0
        planner_removes = 0
        for scenario in PLANNER_GOLDEN_SCENARIOS:
            planner = _load_golden(scenario, "planner")
            planner_adds += sum(
                1 for d in planner["decisions"] if d["kind"] == "add_node"
            )
            planner_removes += sum(
                1 for d in planner["decisions"] if d["kind"] == "remove_node"
            )
        assert planner_adds >= 1
        assert planner_removes >= 2

    def test_tpcc_scenarios_carry_native_units(self):
        """The TPC-C catalog entries declare tpmC floors and unit metadata."""
        for scenario in ("tpcc_steady", "tpcc_order_rush", "mixed_tenancy"):
            for controller in GOLDEN_CONTROLLERS:
                golden = _load_golden(scenario, controller)
                assert golden["tenant_units"]["tpcc"] == "tpmC"
                tpmc_floors = [
                    entry for entry in golden["slo"]
                    if entry["tenant"] == "tpcc" and entry["unit"] == "tpmC"
                ]
                assert tpmc_floors, f"{scenario} declares no tpmC SLO"
                assert all("tpmC" in entry["slo"] for entry in tpmc_floors)


class TestGoldenSuiteBudget:
    """Defined last in the module so its test runs after the whole suite."""

    def test_suite_stays_inside_wall_clock_budget(self):
        """Catalog growth must not silently erode the tier-1 time budget."""
        elapsed = wall_perf_counter() - _suite_clock["start"]
        assert elapsed <= SUITE_BUDGET_SECONDS, (
            f"golden suite took {elapsed:.1f}s, budget {SUITE_BUDGET_SECONDS:.1f}s "
            "(see ROADMAP; trim the catalog/kernel matrix or raise the budget "
            "deliberately via GOLDEN_SUITE_BUDGET_SECONDS)"
        )
