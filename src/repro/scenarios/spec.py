"""Declarative scenario specifications.

A :class:`ScenarioSpec` describes one time-varying multi-tenant experiment:
the cluster (node count, hardware, tick), the tenants (any
:class:`~repro.workloads.tenant.TenantWorkload` -- YCSB key-value tenants,
TPC-C transactional tenants -- with baseline throughput targets) and a list
of timed *events* -- load curves, flash crowds, tenant churn, workload-mix
shifts, node faults, data-growth bursts (see :mod:`repro.scenarios.events`).
Specs are pure data: compiling one against a live simulator
(:func:`repro.scenarios.schedule.compile_spec`) produces the event schedule
the experiment harness drives.

Everything random in a scenario run -- fault victim selection, arriving
tenant placement, the HBase balancer daemon -- draws from the simulator's
single seeded RNG, so a spec plus its ``seed`` replays bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.simulation.hardware import HardwareSpec
from repro.workloads.tenant import TenantWorkload
from repro.workloads.ycsb.workloads import binding_name

__all__ = ["ScenarioSpec", "TenantSpec", "binding_name"]


@dataclass(frozen=True)
class TenantSpec:
    """One tenant present from the start of the scenario.

    ``workload`` is any :class:`~repro.workloads.tenant.TenantWorkload`
    (a :class:`~repro.workloads.ycsb.workloads.YCSBWorkload` or a
    :class:`~repro.workloads.tpcc.tenant.TPCCTenant`).  ``target_ops`` is
    the tenant's *baseline* throughput cap in simulator ops/s; load-shaping
    events (diurnal curves, flash crowds) modulate it multiplicatively.
    ``None`` leaves the tenant uncapped, in which case load events modulate
    the workload's nominal throughput estimate instead.
    """

    workload: TenantWorkload
    target_ops: float | None = None

    @property
    def name(self) -> str:
        """Tenant name (the workload's name)."""
        return self.workload.name

    def configured_workload(self) -> TenantWorkload:
        """The tenant workload with the baseline target applied."""
        return self.workload.with_target(self.target_ops)


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete declarative scenario."""

    name: str
    tenants: tuple[TenantSpec, ...]
    events: tuple = ()
    #: Declared controller expectations (see :mod:`repro.scenarios.assertions`),
    #: evaluated against the run and recorded in its trace.
    assertions: tuple = ()
    #: Declared per-tenant SLOs (:class:`repro.sla.slo.SLODefinition`),
    #: evaluated under *every* controller and serialised into traces; the
    #: ``SLOViolationsBelow`` assertion references them by tenant.
    slos: tuple = ()
    duration_minutes: float = 10.0
    seed: int = 0
    initial_nodes: int = 3
    max_nodes: int = 8
    tick_seconds: float = 5.0
    #: Granularity at which continuous events (load curves, mix shifts,
    #: growth bursts) are discretised into schedule steps.
    control_interval_seconds: float = 15.0
    hardware: HardwareSpec | None = None
    #: Controller cadence for runs of this scenario (reduced-scale defaults:
    #: a decision every minute instead of the paper's every three).
    monitor_period_seconds: float = 15.0
    decision_samples: int = 4
    cooldown_seconds: float = 90.0
    description: str = ""

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ValueError(f"scenario {self.name!r} needs at least one tenant")
        names = [tenant.name for tenant in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"scenario {self.name!r} has duplicate tenants: {names}")
        if self.duration_minutes <= 0:
            raise ValueError("duration must be positive")
        if self.initial_nodes <= 0:
            raise ValueError("initial node count must be positive")
        if self.control_interval_seconds <= 0:
            raise ValueError("control interval must be positive")
        if self.tick_seconds <= 0:
            raise ValueError("tick must be positive")

    @property
    def duration_seconds(self) -> float:
        """Scenario length in simulated seconds."""
        return self.duration_minutes * 60.0

    def with_events(self, *events) -> "ScenarioSpec":
        """A copy of this spec with ``events`` appended."""
        return replace(self, events=tuple(self.events) + tuple(events))

    def with_assertions(self, *assertions) -> "ScenarioSpec":
        """A copy of this spec with ``assertions`` appended."""
        return replace(self, assertions=tuple(self.assertions) + tuple(assertions))
