"""Unit and property tests for the scenario assertions DSL and the event
schedule's exactly-once firing guarantee across chained windows."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.harness import (
    ExperimentHarness,
    RunAnnotation,
    StrategyRun,
    TimeSeriesPoint,
)
from repro.scenarios import (
    ADD_NODE,
    CANNED_SCENARIOS,
    RECONFIGURE,
    REMOVE_NODE,
    NoOscillation,
    ReconfiguresBefore,
    RecoversWithin,
    StaysWithin,
    controller_actions,
    evaluate_assertions,
    run_scenario,
)
from repro.scenarios.runner import ScenarioRunResult
from repro.scenarios.schedule import EventSchedule, ScheduledAction
from repro.simulation.cluster import ClusterSimulator


def fake_result(
    decisions=(),
    series=(),
    annotations=(),
    controller="met",
    spec_assertions=(),
):
    """A ScenarioRunResult shaped like a real run, without running one."""
    from dataclasses import replace

    spec = replace(CANNED_SCENARIOS["flash_crowd"], assertions=tuple(spec_assertions))
    run = StrategyRun(name="fake")
    run.series = [
        TimeSeriesPoint(minute=m, throughput=t, cumulative_ops=0.0, nodes=n)
        for m, t, n in series
    ]
    run.annotations = [RunAnnotation(minute=m, label=label) for m, label in annotations]
    run.final_nodes = run.series[-1].nodes if run.series else 0
    return ScenarioRunResult(
        spec=spec,
        controller=controller,
        run=run,
        decisions=[dict(d) for d in decisions],
    )


def plan(minute, restarts=0, adds=0, removes=0, moves=0):
    return {
        "minute": minute,
        "kind": "plan",
        "detail": f"initial=False restarts={restarts} adds={adds} "
        f"removes={removes} moves={moves}",
    }


class TestControllerActions:
    def test_met_plan_explodes_into_components(self):
        actions = controller_actions(
            [plan(2.0, restarts=2, adds=1), plan(5.0, moves=3), plan(7.0, removes=1)]
        )
        assert actions == [
            (2.0, RECONFIGURE),
            (2.0, ADD_NODE),
            (5.0, RECONFIGURE),
            (7.0, REMOVE_NODE),
        ]

    def test_tiramola_events_pass_through(self):
        decisions = [
            {"minute": 1.0, "kind": "add_node", "detail": "rs-auto-1"},
            {"minute": 4.0, "kind": "remove_node", "detail": "rs-2"},
            {"minute": 5.0, "kind": "healthy", "detail": ""},
        ]
        assert controller_actions(decisions) == [
            (1.0, ADD_NODE),
            (4.0, REMOVE_NODE),
        ]


class TestReconfiguresBefore:
    def test_passes_when_reconfigure_precedes_add(self):
        result = fake_result(decisions=[plan(2.0, restarts=1), plan(4.0, adds=1)])
        verdict = ReconfiguresBefore().evaluate(result)
        assert verdict.passed

    def test_fails_when_add_comes_first(self):
        result = fake_result(decisions=[plan(2.0, adds=1), plan(4.0, restarts=1)])
        verdict = ReconfiguresBefore().evaluate(result)
        assert not verdict.passed
        assert "precedes" in verdict.detail

    def test_fails_without_any_reconfiguration(self):
        result = fake_result(decisions=[plan(2.0, adds=1)])
        verdict = ReconfiguresBefore().evaluate(result)
        assert not verdict.passed
        assert verdict.detail == "never reconfigured"

    def test_passes_when_reconfiguration_suffices(self):
        result = fake_result(decisions=[plan(2.0, restarts=2, moves=3)])
        verdict = ReconfiguresBefore().evaluate(result)
        assert verdict.passed
        assert "no add_node needed" in verdict.detail

    def test_same_plan_reconfigure_and_add_fails(self):
        """A bundled plan acts at one minute; ties are not 'before'."""
        result = fake_result(decisions=[plan(2.0, restarts=1, adds=1)])
        assert not ReconfiguresBefore().evaluate(result).passed


class TestNoOscillation:
    def test_monotone_history_has_no_flips(self):
        result = fake_result(
            decisions=[
                {"minute": 1.0, "kind": "add_node", "detail": ""},
                {"minute": 3.0, "kind": "add_node", "detail": ""},
            ]
        )
        verdict = NoOscillation().evaluate(result)
        assert verdict.passed

    def test_thrash_counts_direction_changes(self):
        kinds = ["add_node", "remove_node", "add_node", "remove_node"]
        result = fake_result(
            decisions=[
                {"minute": float(i), "kind": kind, "detail": ""}
                for i, kind in enumerate(kinds)
            ]
        )
        assert not NoOscillation(max_flips=2).evaluate(result).passed
        assert NoOscillation(max_flips=3).evaluate(result).passed


class TestRecoversWithin:
    SERIES = [
        (0.0, 4000.0, 3), (1.0, 4000.0, 3), (2.0, 4000.0, 3),
        (3.0, 1500.0, 2), (4.0, 2000.0, 2), (5.0, 3900.0, 3), (6.0, 4000.0, 3),
    ]

    def test_recovery_inside_deadline_passes(self):
        result = fake_result(
            series=self.SERIES, annotations=[(2.5, "node-crash")]
        )
        verdict = RecoversWithin(minutes=4.0, fraction=0.9).evaluate(result)
        assert verdict.passed
        assert "recovered" in verdict.detail

    def test_missed_deadline_fails(self):
        result = fake_result(
            series=self.SERIES, annotations=[(2.5, "node-crash")]
        )
        verdict = RecoversWithin(minutes=1.5, fraction=0.9).evaluate(result)
        assert not verdict.passed

    def test_label_matches_by_prefix(self):
        result = fake_result(
            series=self.SERIES, annotations=[(2.5, "flash-crowd-end:C")]
        )
        verdict = RecoversWithin(
            minutes=4.0, after_label="flash-crowd-end", fraction=0.9
        ).evaluate(result)
        assert verdict.passed

    def test_missing_event_fails_loudly(self):
        result = fake_result(series=self.SERIES)
        verdict = RecoversWithin().evaluate(result)
        assert not verdict.passed
        assert "annotation" in verdict.detail


class TestStaysWithin:
    def test_envelope_respected(self):
        result = fake_result(series=[(0.0, 1.0, 3), (1.0, 1.0, 4)])
        assert StaysWithin(min_nodes=3, max_nodes=4).evaluate(result).passed

    def test_floor_violation_fails(self):
        result = fake_result(series=[(0.0, 1.0, 3), (1.0, 1.0, 1)])
        verdict = StaysWithin(min_nodes=2).evaluate(result)
        assert not verdict.passed
        assert "shrank" in verdict.detail

    def test_ceiling_violation_fails(self):
        result = fake_result(series=[(0.0, 1.0, 3), (1.0, 1.0, 7)])
        verdict = StaysWithin(max_nodes=6).evaluate(result)
        assert not verdict.passed
        assert "grew" in verdict.detail


class TestEvaluation:
    def test_controller_scoping(self):
        assertions = (
            ReconfiguresBefore(controllers=("met",)),
            StaysWithin(min_nodes=1),
        )
        met = fake_result(
            decisions=[plan(1.0, restarts=1)],
            series=[(0.0, 1.0, 3)],
            controller="met",
            spec_assertions=assertions,
        )
        tiramola = fake_result(
            series=[(0.0, 1.0, 3)],
            controller="tiramola",
            spec_assertions=assertions,
        )
        assert len(evaluate_assertions(met)) == 2
        assert len(evaluate_assertions(tiramola)) == 1

    def test_deliberately_failing_assertion_is_recorded_not_raised(self):
        """A failing declaration yields a failed verdict in the result, not
        an exception -- traces must record the violation."""
        spec = CANNED_SCENARIOS["flash_crowd"].with_assertions(
            StaysWithin(max_nodes=1),  # guaranteed violation: 3 initial nodes
        )
        result = run_scenario(spec, controller="none", keep_simulator=False)
        failed = [v for v in result.assertions if not v.passed]
        assert failed, "the impossible envelope should have failed"
        assert not result.assertions_passed
        assert "StaysWithin" in failed[0].assertion

    def test_describe_is_stable_and_omits_defaults(self):
        assert NoOscillation().describe() == "NoOscillation()"
        assert NoOscillation(max_flips=2).describe() == "NoOscillation(max_flips=2)"
        described = RecoversWithin(minutes=3.0, fraction=0.8).describe()
        assert described == "RecoversWithin(minutes=3.0, fraction=0.8)"


class TestFireDueExactlyOnce:
    """EventSchedule.fire_due across chained windows (harness run_for)."""

    @settings(max_examples=60, deadline=None)
    @given(
        times=st.lists(
            st.floats(min_value=0.0, max_value=600.0, allow_nan=False),
            min_size=1,
            max_size=25,
        ),
        cuts=st.lists(
            st.floats(min_value=0.0, max_value=600.0, allow_nan=False),
            max_size=4,
        ),
    )
    def test_each_action_fires_exactly_once(self, times, cuts):
        fired: list[int] = []
        actions = [
            ScheduledAction(t, f"a{i}", apply=lambda i=i: fired.append(i) or "")
            for i, t in enumerate(times)
        ]
        schedule = EventSchedule(actions)
        # Chained windows with arbitrary (sorted) cut points, then the end.
        for now in sorted(cuts) + [600.0]:
            schedule.fire_due(now)
        assert sorted(fired) == list(range(len(times)))
        assert schedule.pending == 0
        # Firing order is by time, with ties in spec order.
        order = sorted(range(len(times)), key=lambda i: (times[i], i))
        assert fired == order

    def test_same_instant_actions_keep_spec_order(self):
        fired = []
        schedule = EventSchedule(
            [
                ScheduledAction(60.0, "first", apply=lambda: fired.append("first")),
                ScheduledAction(60.0, "second", apply=lambda: fired.append("second")),
                ScheduledAction(0.0, "zeroth", apply=lambda: fired.append("zeroth")),
            ]
        )
        schedule.fire_due(120.0)
        assert fired == ["zeroth", "first", "second"]

    def test_chained_run_for_sees_each_event_exactly_once(self):
        """Events on window boundaries fire once even when the harness run
        is split into back-to-back run_for calls."""
        counts = {"start": 0, "boundary": 0, "end": 0}

        def bump(key):
            counts[key] += 1
            return key

        simulator = ClusterSimulator(tick_seconds=5.0)
        simulator.add_node()
        harness = ExperimentHarness(simulator)
        schedule = EventSchedule(
            [
                ScheduledAction(0.0, "start", apply=lambda: bump("start")),
                ScheduledAction(60.0, "boundary", apply=lambda: bump("boundary")),
                ScheduledAction(120.0, "end", apply=lambda: bump("end")),
            ]
        )
        harness.run_for(60.0, schedule=schedule)
        assert counts == {"start": 1, "boundary": 1, "end": 0}
        harness.run_for(60.0, schedule=schedule)
        assert counts == {"start": 1, "boundary": 1, "end": 1}
        # A third window finds nothing left to fire.
        harness.run_for(60.0, schedule=schedule)
        assert counts == {"start": 1, "boundary": 1, "end": 1}
