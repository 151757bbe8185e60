"""Declarative time-varying workload scenarios with fault injection.

The paper evaluates MeT against a static six-tenant mix and one ramp; this
package generalises the evaluation surface: a :class:`ScenarioSpec` composes
timed events -- diurnal and flash-crowd load curves, tenant churn, workload
mix shifts, IaaS-level node faults, data-growth bursts -- which compile into
an event schedule the experiment harness drives against the simulator and
either controller.  Runs are bit-reproducible from the spec's seed, which is
what makes the committed golden traces (``tests/golden/``) a regression
gate for the whole controller stack.
"""

from repro.scenarios.assertions import (
    ADD_NODE,
    RECONFIGURE,
    REMOVE_NODE,
    AssertionResult,
    CostCeiling,
    NoOscillation,
    ReconfiguresBefore,
    RecoversWithin,
    ScenarioAssertion,
    SLOViolationsBelow,
    StaysWithin,
    controller_actions,
    evaluate_assertions,
)
from repro.scenarios.catalog import CANNED_SCENARIOS, canned_scenario
from repro.scenarios.context import ScenarioContext
from repro.scenarios.events import (
    DataGrowthBurst,
    DiurnalLoad,
    FlashCrowd,
    MixShift,
    NodeCrash,
    NodeRecovery,
    NodeSlowdown,
    TenantArrival,
    TenantDeparture,
)
from repro.scenarios.runner import (
    CONTROLLERS,
    ScenarioRunResult,
    build_scenario,
    run_scenario,
)
from repro.scenarios.schedule import EventSchedule, ScheduledAction, compile_spec
from repro.scenarios.spec import ScenarioSpec, binding_name
from repro.scenarios.trace import (
    TraceFormatError,
    diff_traces,
    load_trace,
    result_trace,
    scenario_trace,
    trace_to_json,
)

__all__ = [
    "ADD_NODE",
    "RECONFIGURE",
    "REMOVE_NODE",
    "AssertionResult",
    "CANNED_SCENARIOS",
    "CONTROLLERS",
    "CostCeiling",
    "DataGrowthBurst",
    "DiurnalLoad",
    "EventSchedule",
    "FlashCrowd",
    "MixShift",
    "NoOscillation",
    "NodeCrash",
    "NodeRecovery",
    "NodeSlowdown",
    "ReconfiguresBefore",
    "RecoversWithin",
    "SLOViolationsBelow",
    "ScenarioAssertion",
    "ScenarioContext",
    "ScenarioRunResult",
    "ScenarioSpec",
    "ScheduledAction",
    "StaysWithin",
    "TenantArrival",
    "TenantDeparture",
    "TraceFormatError",
    "binding_name",
    "build_scenario",
    "canned_scenario",
    "compile_spec",
    "controller_actions",
    "diff_traces",
    "evaluate_assertions",
    "load_trace",
    "result_trace",
    "run_scenario",
    "scenario_trace",
    "trace_to_json",
]
