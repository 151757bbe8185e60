"""Reuse-vs-no-reuse soak across the full scenario catalog.

Solution reuse and fast-forwarding may only skip work whose result is
bit-exact: every catalog scenario, under both golden controllers, must
produce a trace *byte-identical* to the same run with reuse disabled
(``solver_oracles.NoReuseSolver``, where every tick is a real solve and
nothing is fast-forwarded).  The golden suite compares the solver against
committed goldens; this module locks down the stronger property, so a
future reuse optimisation that is merely "close" fails here explicitly
instead of silently drifting the goldens.

The soak found (and this module regression-tests) one real divergence: a MeT
decision already due but held back by the cooldown fires on the first *tick*
after the cooldown lapses -- not on a monitor sampling tick -- so
``MeT.next_wakeup`` must be bounded by the cooldown-expiry instant or the
fast-forwarding harness skips the firing tick and the decision lands up to a
monitor period late (observed on cascading_failure, tenant_churn and
tpcc_steady before the fix).
"""

import pytest

from repro.core.framework import MeT
from repro.core.parameters import MeTParameters
from repro.scenarios import CANNED_SCENARIOS, scenario_trace, trace_to_json
from repro.scenarios.catalog import SMALL_A, SMALL_C
from repro.scenarios.events import DataGrowthBurst
from repro.scenarios.spec import ScenarioSpec, TenantSpec
from repro.scenarios.trace import GOLDEN_CONTROLLERS
from solver_oracles import NoReuseSolver, installed

COMBOS = [
    (scenario, controller)
    for scenario in sorted(CANNED_SCENARIOS)
    for controller in GOLDEN_CONTROLLERS
]


class TestEventFastSoak:
    @pytest.mark.parametrize("scenario,controller", COMBOS)
    def test_event_trace_is_byte_identical_to_fast(self, scenario, controller):
        spec = CANNED_SCENARIOS[scenario]
        with installed(NoReuseSolver):
            fast = scenario_trace(spec, controller)
        event = scenario_trace(spec, controller)
        assert trace_to_json(fast) == trace_to_json(event), (
            f"{scenario}/{controller}: reuse diverged from solving every "
            "tick; the solver may only reuse/fast-forward when the result "
            "is bit-exact (see PERFORMANCE.md)"
        )


def _insert_free_growth_spec() -> ScenarioSpec:
    """Catalog ``data_growth`` with the growth on an insert-free tenant.

    The catalog grows insert-mostly tenant D, whose solutions are never
    reused; growing read-only tenant C is the case where a reused fixed
    point would keep serving hit ratios computed from the old sizes.
    """
    return ScenarioSpec(
        name="insert_free_growth",
        tenants=(
            TenantSpec(SMALL_A, target_ops=2400.0),
            TenantSpec(SMALL_C, target_ops=2800.0),
        ),
        events=(
            DataGrowthBurst(
                tenant="C", start_minute=2.0, duration_minutes=4.0, growth_factor=40.0
            ),
        ),
        duration_minutes=10.0,
        initial_nodes=3,
        max_nodes=6,
    )


class TestDataGrowthSoak:
    """Resizing regions must drop the cached fixed point."""

    @pytest.mark.parametrize("controller", ["none", "met", "tiramola"])
    def test_growth_burst_on_insert_free_tenant_is_byte_identical(self, controller):
        spec = _insert_free_growth_spec()
        with installed(NoReuseSolver):
            fast = scenario_trace(spec, controller)
        event = scenario_trace(spec, controller)
        assert trace_to_json(fast) == trace_to_json(event), (
            f"{controller}: a data-growth burst replayed a stale fixed point"
        )


class _IdleBackend:
    """Minimal backend: enough for a MeT that never has to decide."""

    def node_names(self):
        return ["rs-1"]

    def online_node_names(self):
        return ["rs-1"]

    def node_system_metrics(self, name):
        return {"cpu": 0.1, "io_wait": 0.1, "memory": 0.1}

    def node_locality(self, name):
        return 1.0

    def node_profile(self, name):
        return "default"

    def partition_stats(self):
        return {}


class TestMeTCooldownWakeup:
    """The next_wakeup bug the soak surfaced, pinned as a unit test."""

    def _met(self) -> MeT:
        parameters = MeTParameters(
            monitor_period_seconds=15.0, decision_samples=4, cooldown_seconds=90.0
        )
        return MeT(_IdleBackend(), parameters)

    def test_pending_decision_bounds_wakeup_by_cooldown_expiry(self):
        met = self._met()
        met._last_sample_time = 300.0
        met.monitor._samples_since_decision = 4  # decision latched
        met._last_action_time = 250.0  # cooldown runs until 340.0
        # Next sample would be due at ~315, but the latched decision fires
        # earlier than any sample on the first step at/after 340?  No:
        # 315 < 340, so the *monitor* wakeup stays binding here ...
        assert met.next_wakeup(310.0) == pytest.approx(315.0, abs=1e-6)
        # ... but once the next sampling instant lies beyond the cooldown
        # expiry, the expiry instant must bound the wakeup: step(t) fires
        # the decision at the first t >= 340, well before the sample at 405.
        met._last_sample_time = 390.0
        met._last_action_time = 250.0
        assert met.next_wakeup(330.0) == pytest.approx(340.0, abs=1e-6)

    def test_pending_decision_with_no_prior_action_wakes_immediately(self):
        met = self._met()
        met._last_sample_time = 300.0
        met.monitor._samples_since_decision = 4
        assert met.next_wakeup(301.0) == 301.0

    def test_no_pending_decision_keeps_monitor_cadence(self):
        met = self._met()
        met._last_sample_time = 300.0
        met.monitor._samples_since_decision = 2
        met._last_action_time = 299.0
        assert met.next_wakeup(301.0) == pytest.approx(315.0, abs=1e-6)
