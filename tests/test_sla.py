"""Unit tests for the SLA subsystem: SLOs, pricing, assertions, back-compat.

The golden-trace suite locks the end-to-end behaviour down; these tests pin
the pieces in isolation -- the SLO evaluator's violation accounting, the
pricing model's rate table and a run's bill, the new assertion types, the per-tenant
series plumbing, and the trace-format back-compat story (a format-2 golden
must fail with a clear "regenerate" message, not a wall of value diffs).
"""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.experiments.harness import (
    ExperimentHarness,
    StrategyRun,
    TenantSeriesPoint,
)
from repro.experiments.reporting import format_matchup
from repro.scenarios import (
    CANNED_SCENARIOS,
    CostCeiling,
    SLOViolationsBelow,
    TraceFormatError,
    controller_actions,
    load_trace,
    result_trace,
    run_scenario,
)
from repro.simulation.cluster import ClusterSimulator
from repro.simulation.metrics import MetricSeries
from repro.scenarios.runner import ScenarioRunResult
from repro.sla import (
    DEFAULT_PRICING,
    REGIONSERVER_FLAVOR,
    PricingModel,
    SLODefinition,
    evaluate_slo,
)
from repro.sla.scorecard import ScorecardRow, render_scorecard, scorecard_row
from repro.workloads import CORE_WORKLOADS, materialise_tenants

FIXTURES = Path(__file__).parent / "fixtures"


def make_run(tenant="workload-A", points=()):
    run = StrategyRun(name="t")
    run.tenant_series[tenant] = [TenantSeriesPoint(*p) for p in points]
    return run


class TestSLODefinition:
    def test_requires_some_bound(self):
        with pytest.raises(ValueError, match="ceiling and/or"):
            SLODefinition(tenant="A")

    def test_rejects_nonpositive_ceiling(self):
        with pytest.raises(ValueError, match="positive"):
            SLODefinition(tenant="A", latency_ceiling_ms=0.0)

    def test_rejects_nonpositive_percentile_ceiling(self):
        with pytest.raises(ValueError, match="p99 ceiling must be positive"):
            SLODefinition(tenant="A", p99_ceiling_ms=-1.0)

    def test_percentile_ceiling_alone_is_a_valid_bound(self):
        assert SLODefinition(tenant="A", p95_ceiling_ms=5.0).p95_ceiling_ms == 5.0

    def test_describe_lists_bounds(self):
        slo = SLODefinition(tenant="A", latency_ceiling_ms=40.0, throughput_floor=100.0)
        assert slo.describe() == "A: latency<=40ms throughput>=100ops/s"

    def test_describe_lists_percentile_bounds(self):
        slo = SLODefinition(
            tenant="A", latency_ceiling_ms=40.0, p95_ceiling_ms=60.0, p99_ceiling_ms=80.0
        )
        assert slo.describe() == "A: latency<=40ms p95<=60ms p99<=80ms"


class TestEvaluateSLO:
    def test_latency_violations_accrue_minutes(self):
        run = make_run(
            points=[
                (1.0, 900.0, 10.0),
                (2.0, 900.0, 55.0),
                (3.0, 900.0, 60.0),
                (4.0, 900.0, 10.0),
            ]
        )
        report = evaluate_slo(SLODefinition(tenant="A", latency_ceiling_ms=50.0), run)
        assert report.samples == 3  # the 1.0m sample's window overlaps warmup
        assert [v.minute for v in report.violations] == [2.0, 3.0]
        assert report.violation_minutes == 2.0
        assert not report.satisfied

    def test_warmup_exempts_windows_overlapping_the_warmup(self):
        # The 1.5m sample *ends* past the warmup but its window starts at
        # 0.1m -- it is mostly warmup-period ticks and must not be judged.
        run = make_run(points=[(0.1, 10.0, 999.0), (1.5, 900.0, 999.0), (2.5, 900.0, 10.0)])
        report = evaluate_slo(SLODefinition(tenant="A", latency_ceiling_ms=50.0), run)
        assert report.samples == 1
        assert report.satisfied

    def test_zero_warmup_judges_everything(self):
        run = make_run(points=[(1.0, 900.0, 99.0)])
        slo = SLODefinition(tenant="A", latency_ceiling_ms=50.0, warmup_minutes=0.0)
        assert evaluate_slo(slo, run).violation_minutes == 1.0

    def test_dual_bound_sample_counts_once_latency_first(self):
        # A sample breaching both bounds is one violation-minute (time out
        # of SLO, not bounds broken), reported under the latency kind.
        run = make_run(points=[(1.0, 900.0, 1.0), (2.0, 400.0, 99.0)])
        slo = SLODefinition(tenant="A", latency_ceiling_ms=50.0, throughput_floor=800.0)
        report = evaluate_slo(slo, run)
        assert [v.kind for v in report.violations] == ["latency"]
        assert report.violation_minutes == 1.0

    def test_throughput_floor(self):
        run = make_run(points=[(1.0, 900.0, 1.0), (2.0, 900.0, 1.0), (3.0, 400.0, 1.0)])
        slo = SLODefinition(tenant="A", throughput_floor=800.0)
        report = evaluate_slo(slo, run)
        assert [v.kind for v in report.violations] == ["throughput"]
        assert report.violations[0].observed == 400.0

    def test_percentile_ceiling_judges_recorded_quantiles(self):
        run = make_run(
            points=[
                (1.0, 900.0, 10.0, 12.0, 15.0),
                (2.0, 900.0, 10.0, 12.0, 15.0),
                (3.0, 900.0, 10.0, 70.0, 90.0),
            ]
        )
        report = evaluate_slo(SLODefinition(tenant="A", p95_ceiling_ms=50.0), run)
        assert [(v.minute, v.kind, v.observed) for v in report.violations] == [
            (3.0, "p95", 70.0)
        ]
        report = evaluate_slo(SLODefinition(tenant="A", p99_ceiling_ms=50.0), run)
        assert [v.kind for v in report.violations] == ["p99"]
        assert report.violations[0].observed == 90.0

    def test_percentile_precedence_mean_then_p95_then_p99(self):
        # One sample breaching every bound counts once, under the most
        # tenant-visible kind that broke: mean latency, then p95, then p99.
        run = make_run(points=[(1.0, 900.0, 1.0, 1.0, 1.0), (2.0, 900.0, 99.0, 99.0, 99.0)])
        slo = SLODefinition(
            tenant="A", latency_ceiling_ms=50.0, p95_ceiling_ms=50.0, p99_ceiling_ms=50.0
        )
        report = evaluate_slo(slo, run)
        assert [v.kind for v in report.violations] == ["latency"]
        tail_only = SLODefinition(tenant="A", p95_ceiling_ms=50.0, p99_ceiling_ms=50.0)
        assert [v.kind for v in evaluate_slo(tail_only, run).violations] == ["p95"]

    def test_percentile_ceiling_without_distributions_raises(self):
        # 3-tuple points carry no recorded quantiles -- judging a tail
        # promise against them must fail loudly, not pass vacuously.
        run = make_run(points=[(1.0, 900.0, 10.0), (2.0, 900.0, 10.0)])
        slo = SLODefinition(tenant="A", p95_ceiling_ms=50.0)
        with pytest.raises(ValueError, match="recorded no latency distributions"):
            evaluate_slo(slo, run)

    def test_sample_minutes_scale_violation_minutes(self):
        run = make_run(points=[(1.0, 900.0, 10.0), (2.0, 900.0, 99.0)])
        slo = SLODefinition(tenant="A", latency_ceiling_ms=50.0)
        assert evaluate_slo(slo, run, sample_minutes=0.5).violation_minutes == 0.5

    def test_scenario_tenant_names_resolve_to_binding_series(self):
        run = make_run(tenant="workload-A", points=[(1.0, 900.0, 10.0), (2.0, 900.0, 10.0)])
        report = evaluate_slo(SLODefinition(tenant="A", latency_ceiling_ms=50.0), run)
        assert report.samples == 1

    def test_absent_tenant_is_vacuously_satisfied(self):
        report = evaluate_slo(
            SLODefinition(tenant="ghost", latency_ceiling_ms=1.0), make_run()
        )
        assert report.samples == 0 and report.satisfied


class TestWarmupFromFirstWindow:
    """The warmup exemption is measured from the *tenant's* first window.

    Regression for the warmup asymmetry: a tenant arriving at minute 30
    with ``warmup_minutes=2`` used to have only its first sample exempted
    (warmup was measured from the run start, long since elapsed) while a
    run-start tenant got the full two-minute window.
    """

    def test_late_tenant_gets_the_full_warmup_window(self):
        points = [(m, 900.0, 99.0) for m in (31.0, 32.0, 33.0, 34.0, 35.0)]
        run = make_run(points=points)
        slo = SLODefinition(tenant="A", latency_ceiling_ms=50.0, warmup_minutes=2.0)
        report = evaluate_slo(slo, run)
        # First window starts at 30m, so the deadline is 32m: the ramp-up
        # samples at 31m and 32m are exempt.  Pre-fix only 31m was.
        assert report.samples == 3
        assert [v.minute for v in report.violations] == [33.0, 34.0, 35.0]

    def test_run_start_tenant_semantics_unchanged(self):
        points = [(m, 900.0, 99.0) for m in (1.0, 2.0, 3.0, 4.0)]
        slo = SLODefinition(tenant="A", latency_ceiling_ms=50.0, warmup_minutes=2.0)
        report = evaluate_slo(slo, make_run(points=points))
        assert [v.minute for v in report.violations] == [3.0, 4.0]

    def test_single_sample_series_stays_exempt_under_positive_warmup(self):
        run = make_run(points=[(31.0, 900.0, 99.0)])
        slo = SLODefinition(tenant="A", latency_ceiling_ms=50.0, warmup_minutes=1.0)
        assert evaluate_slo(slo, run).samples == 0

    def test_tenant_arrival_scenario_exempts_ramp_samples(self):
        """End-to-end: a TenantArrival tenant's ramp-up is warmup-exempt."""
        from repro.scenarios import ScenarioSpec, TenantArrival
        from repro.scenarios.catalog import SMALL_A, SMALL_E

        spec = ScenarioSpec(
            name="late-arrival-warmup",
            tenants=(SMALL_A.with_target(1500.0),),
            events=(TenantArrival(minute=3.0, workload=SMALL_E.with_target(300.0)),),
            slos=(
                SLODefinition(tenant="E", latency_ceiling_ms=50.0, warmup_minutes=2.0),
            ),
            duration_minutes=8.0,
        )
        result = run_scenario(spec, controller="none", keep_simulator=False)
        report = result.slo_reports[0]
        # E samples at 3.08m..7.08m (five samples); its first window starts
        # at 2.08m, so the 2-minute warmup exempts the samples at 3.08m and
        # 4.08m.  Pre-fix, the run-start warmup deadline (2m) exempted only
        # the first.
        assert report.samples == 3
        assert report.satisfied


class TestNativeRateUnits:
    def test_tpmc_floor_converts_observations(self):
        from repro.workloads.tpcc.driver import tpmc_from_ops_rate

        run = make_run(
            tenant="tpcc",
            points=[(1.0, 2000.0, 1.0), (2.0, 2000.0, 1.0), (3.0, 1000.0, 1.0)],
        )
        floor = tpmc_from_ops_rate(1500.0)  # between the two observed rates
        slo = SLODefinition(tenant="tpcc", throughput_floor=floor, unit="tpmC")
        report = evaluate_slo(slo, run)
        assert [v.minute for v in report.violations] == [3.0]
        observed = report.violations[0].observed
        assert observed == pytest.approx(tpmc_from_ops_rate(1000.0))
        assert observed < floor

    def test_describe_carries_the_unit(self):
        slo = SLODefinition(tenant="tpcc", throughput_floor=1800.0, unit="tpmC")
        assert slo.describe() == "tpcc: throughput>=1800tpmC"

    def test_unknown_unit_rejected_at_declaration(self):
        with pytest.raises(ValueError, match="unknown throughput unit"):
            SLODefinition(tenant="tpcc", throughput_floor=1.0, unit="furlongs")


class TestPricing:
    def test_rate_for_prices_per_flavor(self):
        pricing = PricingModel(
            name="test", rates=(("small", 0.001), ("large", 0.004)), default_rate=0.002
        )
        assert pricing.rate_for("small") == 0.001
        assert pricing.rate_for("large") == 0.004
        assert pricing.rate_for("exotic") == 0.002  # unlisted: default rate

    def test_zero_minute_flavors_are_dropped(self):
        # A run that rented no machine bills nothing, and its trace lists
        # no flavor.
        spec = CANNED_SCENARIOS["flash_crowd"]
        result = ScenarioRunResult(spec=spec, controller="none", run=StrategyRun(name="t"))
        assert result.cost == 0.0
        assert result_trace(result)["cost"] == {
            "pricing": DEFAULT_PRICING.name,
            "total": 0.0,
            "machine_minutes": {},
        }

    def test_a_run_bills_its_machine_minutes_at_the_regionserver_flavor(self):
        # Node crashes and controller-added nodes both change the machine
        # count mid-run; the bill is still the harness's machine-minutes.
        result = run_scenario(
            CANNED_SCENARIOS["multi_fault_storm"], controller="met", keep_simulator=False
        )
        labels = [annotation.label for annotation in result.run.annotations]
        assert "node-crash" in labels
        kinds = [kind for _, kind in controller_actions(result.decisions)]
        assert "add_node" in kinds
        minutes = result.run.machine_minutes
        assert result.cost == minutes * DEFAULT_PRICING.rate_for(REGIONSERVER_FLAVOR.name)
        assert result_trace(result)["cost"]["machine_minutes"] == {
            REGIONSERVER_FLAVOR.name: round(minutes, 6)
        }


class TestPricingTiers:
    def test_default_path_is_on_demand_home_region(self):
        # No tier/region bills on-demand in the home region: multiplier 1.0.
        rate = DEFAULT_PRICING.rate_for("m1.small")
        assert rate == DEFAULT_PRICING.rate_for("m1.small", tier=None, region=None)
        assert rate == DEFAULT_PRICING.rate_for("m1.small", tier="on-demand", region="default")

    def test_tier_and_region_multipliers_compose(self):
        base = DEFAULT_PRICING.rate_for("m1.large")
        spot = DEFAULT_PRICING.rate_for("m1.large", tier="spot")
        assert spot == pytest.approx(base * 0.35)
        both = DEFAULT_PRICING.rate_for("m1.large", tier="reserved", region="eu-west")
        assert both == pytest.approx(base * 0.62 * 1.12)

    def test_a_tier_scales_every_flavor_rate_alike(self):
        # Every flavor's rate scales by the same multiplier, so the ratios
        # between flavors are preserved.
        for flavor in ("m1.small", "m1.large", "unlisted"):
            on_demand = DEFAULT_PRICING.rate_for(flavor)
            assert DEFAULT_PRICING.rate_for(flavor, tier="spot") == pytest.approx(
                on_demand * 0.35
            )

    def test_unknown_tier_and_region_are_rejected(self):
        with pytest.raises(KeyError, match="unknown pricing tier"):
            DEFAULT_PRICING.rate_for("m1.small", tier="preemptible")
        with pytest.raises(KeyError, match="unknown region"):
            DEFAULT_PRICING.rate_for("m1.small", region="mars-central1")


class TestSLAAssertions:
    def test_slo_violations_below_fails_on_a_tail_spike_under_a_flat_mean(self):
        # The mean stays at 10ms throughout, so only the percentile
        # ceilings can see the spike a window mean hides: first in p95,
        # then in p99 alone.
        slo = SLODefinition(
            tenant="A", latency_ceiling_ms=20.0, p95_ceiling_ms=20.0, p99_ceiling_ms=40.0
        )
        for p95, p99, kind in [(30.0, 32.0, "p95"), (12.0, 45.0, "p99")]:
            run = make_run(
                points=[
                    (1.0, 900.0, 10.0, 12.0, 15.0),
                    (2.0, 900.0, 10.0, 12.0, 15.0),
                    (3.0, 900.0, 10.0, p95, p99),
                ]
            )
            report = evaluate_slo(slo, run)
            assert [(v.kind, v.minute) for v in report.violations] == [(kind, 3.0)]
            verdict = SLOViolationsBelow(tenant="A", max_violation_minutes=0.0).evaluate(
                SimpleNamespace(slo_reports=[report])
            )
            assert not verdict.passed
            assert "1.0 violation-minutes over 2 judged samples" in verdict.detail

    def test_slo_violations_below_reads_spec_reports(self):
        run = make_run(points=[(1.0, 900.0, 10.0), (2.0, 900.0, 60.0), (3.0, 900.0, 10.0)])
        report = evaluate_slo(SLODefinition(tenant="A", latency_ceiling_ms=50.0), run)
        result = SimpleNamespace(slo_reports=[report])
        assert SLOViolationsBelow(tenant="A", max_violation_minutes=1.0).evaluate(result).passed
        assert not SLOViolationsBelow(tenant="A", max_violation_minutes=0.0).evaluate(result).passed

    def test_slo_violations_below_fails_without_declared_slo(self):
        verdict = SLOViolationsBelow(tenant="A").evaluate(SimpleNamespace(slo_reports=[]))
        assert not verdict.passed
        assert "declares no SLO" in verdict.detail

    def test_slo_violations_below_fails_when_nothing_was_judged(self):
        # A tenant that never produced a series (disabled recording, typo'd
        # name) must not pass vacuously.
        report = evaluate_slo(
            SLODefinition(tenant="A", latency_ceiling_ms=50.0), make_run(tenant="other")
        )
        verdict = SLOViolationsBelow(tenant="A").evaluate(
            SimpleNamespace(slo_reports=[report])
        )
        assert not verdict.passed
        assert "judged no samples" in verdict.detail

    def test_cost_ceiling_prices_the_ledger(self):
        run = StrategyRun(name="t", machine_minutes=60.0)
        spec = CANNED_SCENARIOS["flash_crowd"]
        result = ScenarioRunResult(spec=spec, controller="met", run=run)
        assert CostCeiling(max_cost=0.06).evaluate(result).passed  # 60min @ 0.05/h
        verdict = CostCeiling(max_cost=0.04).evaluate(result)
        assert not verdict.passed
        assert verdict.detail == (
            f"cost 0.050 for 60.0 machine-minutes under {DEFAULT_PRICING.name} (ceiling 0.04)"
        )


class TestTenantSeriesPlumbing:
    def test_simulator_exposes_binding_latency(self):
        sim = ClusterSimulator()
        nodes = [sim.add_node() for _ in range(3)]
        expected = materialise_tenants(sim, CORE_WORKLOADS.values())
        for index, partition in enumerate(expected):
            region = sim.regions[partition.partition_id]
            region.node = nodes[index % 3]
            region.block_homes = {nodes[index % 3]}
        sim.tick()
        for name in sim.bindings:
            assert sim.metrics.latest(f"workload:{name}", "latency_ms") > 0.0
        assert sim.metrics.latest("workload:nope", "latency_ms") == 0.0

    def test_harness_records_window_means(self):
        sim = ClusterSimulator()
        nodes = [sim.add_node() for _ in range(3)]
        expected = materialise_tenants(sim, CORE_WORKLOADS.values())
        for index, partition in enumerate(expected):
            region = sim.regions[partition.partition_id]
            region.node = nodes[index % 3]
            region.block_homes = {nodes[index % 3]}
        harness = ExperimentHarness(sim, sample_every_seconds=30.0)
        run = harness.run_for(120.0)
        assert set(run.tenant_series) == set(sim.bindings)
        for name, points in run.tenant_series.items():
            assert len(points) == len(run.series)
            entity = f"workload:{name}"
            # Each sample is the mean of the tick series over its window.
            first = points[1]
            expected = sim.metrics.series(entity, "latency_ms").mean_between(
                points[0].minute * 60.0, first.minute * 60.0
            )
            assert first.latency_ms == pytest.approx(expected)

    def test_mean_between_is_half_open(self):
        series = MetricSeries(name="x")
        for t, v in [(5.0, 10.0), (10.0, 20.0), (15.0, 30.0)]:
            series.record(t, v)
        assert series.mean_between(5.0, 15.0) == pytest.approx(25.0)
        assert series.mean_between(0.0, 5.0) == pytest.approx(10.0)
        assert series.mean_between(20.0, 30.0, default=-1.0) == -1.0


class TestScorecard:
    def test_scorecard_row_reduces_a_run(self):
        result = run_scenario(
            CANNED_SCENARIOS["flash_crowd"], controller="met", keep_simulator=False
        )
        row = scorecard_row(result)
        assert row.scenario == "flash_crowd" and row.controller == "met"
        assert row.mean_throughput > 0.0
        assert row.cost == result.cost
        assert row.assertions_passed

    def test_render_scorecard_pairs_controllers(self):
        rows = [
            ScorecardRow("s1", "met", 1000.0, 0.0, 0.02, 30.0, True),
            ScorecardRow("s1", "tiramola", 900.0, 2.0, 0.03, 45.0, False),
        ]
        text = render_scorecard(rows)
        lines = text.splitlines()
        assert "met:viol-min" in lines[0] and "tiramola:viol-min" in lines[0]
        assert lines[2].startswith("s1")
        assert "NO" in lines[2]

    def test_format_matchup_blanks_missing_groups(self):
        text = format_matchup(
            [("a", "g1", 1)],
            key=lambda r: r[0],
            group=lambda r: r[1],
            columns=[("v", lambda r: str(r[2]))],
        )
        assert "g1:v" in text


def _load_regen_script():
    spec = importlib.util.spec_from_file_location(
        "regen_goldens", Path(__file__).parent.parent / "scripts" / "regen_goldens.py"
    )
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    return regen


class TestTraceBackCompat:
    def test_format2_fixture_fails_with_regenerate_hint(self):
        fixture = FIXTURES / "flash_crowd__met.format2.json"
        with pytest.raises(TraceFormatError, match="regenerate goldens"):
            load_trace(fixture)

    def test_format4_fixture_fails_with_regenerate_hint(self):
        # A pre-percentile golden (scalar-mean tenant series, no
        # latency_distributions section) is stale, not subtly drifted.
        fixture = FIXTURES / "flash_crowd__met.format4.json"
        with pytest.raises(TraceFormatError, match="format 4.*regenerate goldens"):
            load_trace(fixture)

    def test_current_goldens_load(self):
        golden = load_trace(Path(__file__).parent / "golden" / "flash_crowd__met.json")
        assert golden["tenant_series"]

    def test_regen_check_reports_format_staleness_distinctly(self, tmp_path, monkeypatch):
        regen = _load_regen_script()

        stale = tmp_path / "some__met.json"
        stale.write_text((FIXTURES / "flash_crowd__met.format2.json").read_text())
        fresh_payload = (
            Path(__file__).parent / "golden" / "flash_crowd__met.json"
        ).read_text()
        drifted = tmp_path / "other__met.json"
        drifted.write_text(fresh_payload.replace("2400", "9999", 1))
        corrupt = tmp_path / "broken__met.json"
        corrupt.write_text(fresh_payload[: len(fresh_payload) // 2])

        monkeypatch.setattr(regen, "GOLDEN_DIR", tmp_path)
        monkeypatch.setattr(
            regen,
            "expected_payloads",
            lambda: {stale: fresh_payload, drifted: fresh_payload, corrupt: fresh_payload},
        )
        report = tmp_path / "drift.txt"
        printed = []
        monkeypatch.setattr("builtins.print", lambda *a, **k: printed.append(" ".join(map(str, a))))
        status = regen.check(diff_report=report)
        assert status == 1
        out = "\n".join(printed)
        assert "stale-format" in out and "format 2" in out
        assert "drifted" in out
        # The stale file is labelled stale-format, never drifted; damaged
        # JSON is labelled unparseable, not misdiagnosed as a format bump.
        assert not any("drifted" in line and "some__met" in line for line in printed)
        assert any("unparseable" in line and "broken__met" in line for line in printed)
        assert "format None" not in out
        diff_text = report.read_text()
        assert "9999" in diff_text
        # A stale-format golden contributes a one-line marker, not a wall of
        # cross-schema value diffs that would bury real same-format drift.
        assert "stale trace format" in diff_text
        assert diff_text.count(stale.name) == 1

    def test_regen_names_the_top_level_keys_an_update_moved(
        self, tmp_path, monkeypatch, capsys
    ):
        regen = _load_regen_script()
        payload = (Path(__file__).parent / "golden" / "flash_crowd__met.json").read_text()
        trace = json.loads(payload)
        moved = dict(trace, slo=[], assertions=trace["assertions"][:1])
        moved.pop("cost")
        assert regen.changed_keys(json.dumps(moved), payload) == [
            "assertions", "cost", "slo",
        ]
        assert regen.changed_keys(payload, payload) == []
        assert regen.changed_keys(payload[:100], payload) == sorted(trace)

        same = tmp_path / "same__met.json"
        same.write_text(payload)
        updated = tmp_path / "updated__met.json"
        updated.write_text(json.dumps(dict(trace, seed=7)))
        monkeypatch.setattr(regen, "PAPER_DIR", tmp_path)
        monkeypatch.setattr(
            regen, "expected_payloads", lambda: {same: payload, updated: payload}
        )
        regen.regenerate()
        assert capsys.readouterr().out.splitlines() == [
            f"unchanged {same}",
            f"updated   {updated} (seed)",
        ]
        assert updated.read_text() == payload
