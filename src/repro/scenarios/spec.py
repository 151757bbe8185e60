"""Declarative scenario specifications.

A :class:`ScenarioSpec` describes one time-varying multi-tenant experiment:
the cluster (node count, hardware, tick, initial layout), the tenants (any
:class:`~repro.workloads.tenant.TenantWorkload` -- YCSB key-value tenants,
TPC-C transactional tenants -- each carrying its own baseline throughput
cap, ``target_ops_per_second``, which load-shaping events modulate) and a list
of timed *events* -- load curves, flash crowds, tenant churn, workload-mix
shifts, node faults, data-growth bursts (see :mod:`repro.scenarios.events`).
Specs are pure data: compiling one against a live simulator
(:func:`repro.scenarios.schedule.compile_spec`) produces the event schedule
the experiment harness drives.

Everything random in a scenario run -- fault victim selection, arriving
tenant placement, the HBase balancer daemon -- draws from the simulator's
single seeded RNG (a ``random-homogeneous`` initial layout seeds its own
balancer from the same ``seed``), so a spec plus its ``seed`` replays
bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.elasticity.strategies import PLACEMENTS, PlacementPlan
from repro.simulation.hardware import HardwareSpec
from repro.workloads.tenant import TenantWorkload
from repro.workloads.ycsb.workloads import binding_name

__all__ = ["ScenarioSpec", "binding_name"]


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete declarative scenario."""

    name: str
    #: Tenants present from the start, each a configured
    #: :class:`~repro.workloads.tenant.TenantWorkload` carrying its own
    #: baseline cap (``SMALL_A.with_target(2600.0)``).
    tenants: tuple[TenantWorkload, ...]
    events: tuple = ()
    #: Declared controller expectations (see :mod:`repro.scenarios.assertions`),
    #: evaluated against the run and recorded in its trace.
    assertions: tuple = ()
    #: Declared per-tenant SLOs (:class:`repro.sla.slo.SLODefinition`),
    #: evaluated under *every* controller and serialised into traces.  Every
    #: latency or throughput promise lives here; the ``SLOViolationsBelow``
    #: assertion, the only verdict on them, references them by tenant.
    slos: tuple = ()
    duration_minutes: float = 10.0
    seed: int = 0
    initial_nodes: int = 3
    #: Cluster-size floor of the controllers (the paper runs hold their
    #: initial size; the catalog lets a controller shrink to one node).
    min_nodes: int = 1
    max_nodes: int = 8
    #: The layout the run starts from: a name in
    #: :data:`~repro.elasticity.strategies.PLACEMENTS`, or a ready plan
    #: (e.g. the layout a controller converged to in an earlier run).
    placement: str | PlacementPlan = "manual-homogeneous"
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
    #: Minute at which the controller joins the run (after a ramp-up on
    #: the initial layout, as in the paper's convergence experiments).
    controller_start_minute: float = 0.0
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
        if isinstance(self.placement, str) and self.placement not in PLACEMENTS:
            raise ValueError(
                f"unknown placement {self.placement!r}; expected one of {sorted(PLACEMENTS)}"
            )
        if not 0.0 <= self.controller_start_minute < self.duration_minutes:
            raise ValueError("controller start must fall inside the run")

    @property
    def duration_seconds(self) -> float:
        """Scenario length in simulated seconds."""
        return self.duration_minutes * 60.0
