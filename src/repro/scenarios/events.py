"""The declarative scenario event vocabulary.

Six families of timed stimuli, mirroring the conditions a workload-aware
controller must survive in production:

* :class:`DiurnalLoad` -- a sinusoidal day/night curve on one tenant.
* :class:`FlashCrowd` -- ramp/hold/decay load spike on one tenant.
* :class:`TenantArrival` / :class:`TenantDeparture` -- tenant churn.
* :class:`MixShift` -- a tenant's operation mix morphing over a window
  (e.g. a read-mostly service turning write-heavy).
* :class:`NodeCrash` / :class:`NodeRecovery` / :class:`NodeSlowdown` --
  fault injection through the IaaS layer (crash; repair-and-rejoin of a
  crashed machine; straggler with optional recovery and per-resource
  degradation factors, e.g. a network-only slowdown).
* :class:`DataGrowthBurst` -- a tenant's dataset ballooning over a window.

Every event compiles (``compile(spec, context)``) into
:class:`~repro.scenarios.schedule.ScheduledAction` lists: continuous curves
become silent control steps evaluated analytically at compile time, discrete
happenings become annotated actions that show up in traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.scenarios.context import ScenarioContext
from repro.scenarios.schedule import ScheduledAction, control_steps
from repro.scenarios.spec import ScenarioSpec
from repro.workloads.tenant import TenantWorkload


def _event_key(event, index_hint: str) -> str:
    """Multiplier key for one load-shaping event instance.

    Includes the instance identity so two otherwise-identical events (same
    tenant, same start) contribute *separate* multipliers that compose,
    instead of overwriting each other.  Keys are run-internal (never
    serialised), so the id does not affect reproducibility.
    """
    return f"{type(event).__name__}:{index_hint}:{id(event)}"


@dataclass(frozen=True)
class DiurnalLoad:
    """Sinusoidal load curve: multiplier ``1 + amplitude*sin(...)``.

    ``period_minutes`` is the full day/night cycle; ``phase_minutes`` shifts
    tenants against each other so their peaks do not align.
    """

    tenant: str
    period_minutes: float = 8.0
    amplitude: float = 0.5
    phase_minutes: float = 0.0
    start_minute: float = 0.0
    end_minute: float | None = None

    def multiplier(self, minute: float) -> float:
        """Load multiplier at ``minute``."""
        angle = 2.0 * math.pi * (minute - self.phase_minutes) / self.period_minutes
        return max(0.0, 1.0 + self.amplitude * math.sin(angle))

    def compile(self, spec: ScenarioSpec, context: ScenarioContext) -> list[ScheduledAction]:
        if not 0.0 <= self.amplitude <= 1.0:
            raise ValueError("diurnal amplitude must be in [0, 1]")
        if self.period_minutes <= 0:
            raise ValueError("diurnal period must be positive")
        end = self.end_minute if self.end_minute is not None else spec.duration_minutes
        key = _event_key(self, f"{self.tenant}@{self.start_minute}")
        actions = [
            ScheduledAction(
                time_seconds=self.start_minute * 60.0,
                label=f"diurnal:{self.tenant}",
                apply=lambda: f"period={self.period_minutes}m amplitude={self.amplitude}",
                annotate=True,
            )
        ]
        for t in control_steps(spec, self.start_minute, end):
            m = self.multiplier(t / 60.0)
            actions.append(
                ScheduledAction(
                    time_seconds=t,
                    label=f"load:{self.tenant}",
                    apply=lambda m=m: context.set_load_multiplier(self.tenant, key, m),
                )
            )
        if end < spec.duration_minutes:
            # A curve that ends mid-run returns the tenant to its baseline
            # instead of freezing it at the curve's final value.
            actions.append(
                ScheduledAction(
                    time_seconds=end * 60.0,
                    label=f"diurnal-end:{self.tenant}",
                    apply=lambda: context.clear_load_multiplier(self.tenant, key),
                    annotate=True,
                )
            )
        return actions


@dataclass(frozen=True)
class FlashCrowd:
    """A load spike: linear ramp to ``magnitude``, hold, linear decay."""

    tenant: str
    start_minute: float
    ramp_minutes: float = 1.0
    hold_minutes: float = 2.0
    decay_minutes: float = 1.0
    magnitude: float = 3.0

    @property
    def end_minute(self) -> float:
        """Minute the crowd has fully dispersed."""
        return self.start_minute + self.ramp_minutes + self.hold_minutes + self.decay_minutes

    def multiplier(self, minute: float) -> float:
        """Load multiplier at ``minute``."""
        t = minute - self.start_minute
        if t < 0 or minute > self.end_minute:
            return 1.0
        if t < self.ramp_minutes:
            return 1.0 + (self.magnitude - 1.0) * (t / self.ramp_minutes)
        if t < self.ramp_minutes + self.hold_minutes:
            return self.magnitude
        if self.decay_minutes <= 0:
            # Instant dispersal: the crowd is gone the moment the hold ends.
            return 1.0
        into_decay = t - self.ramp_minutes - self.hold_minutes
        return self.magnitude - (self.magnitude - 1.0) * (into_decay / self.decay_minutes)

    def compile(self, spec: ScenarioSpec, context: ScenarioContext) -> list[ScheduledAction]:
        if self.magnitude <= 0:
            raise ValueError("flash crowd magnitude must be positive")
        if self.ramp_minutes < 0 or self.hold_minutes < 0 or self.decay_minutes < 0:
            raise ValueError("flash crowd phases must be non-negative")
        if self.start_minute >= spec.duration_minutes:
            # Entirely after the run: no actions, no dangling end annotation.
            return []
        key = _event_key(self, f"{self.tenant}@{self.start_minute}")
        actions = [
            ScheduledAction(
                time_seconds=self.start_minute * 60.0,
                label=f"flash-crowd-start:{self.tenant}",
                apply=lambda: f"x{self.magnitude} for {self.hold_minutes}m",
                annotate=True,
            ),
        ]
        for t in control_steps(spec, self.start_minute, self.end_minute):
            m = self.multiplier(t / 60.0)
            actions.append(
                ScheduledAction(
                    time_seconds=t,
                    label=f"load:{self.tenant}",
                    apply=lambda m=m: context.set_load_multiplier(self.tenant, key, m),
                )
            )
        # Appended after the steps: ties at the end instant resolve with the
        # clear firing last (the schedule's sort is stable), so the tenant
        # ends on its baseline, not on a re-added multiplier.
        actions.append(
            ScheduledAction(
                time_seconds=min(self.end_minute, spec.duration_minutes) * 60.0,
                label=f"flash-crowd-end:{self.tenant}",
                apply=lambda: context.clear_load_multiplier(self.tenant, key),
                annotate=True,
            )
        )
        return actions


@dataclass(frozen=True)
class TenantArrival:
    """A new tenant arrives mid-run with its own workload and partitions.

    ``workload`` is any :class:`~repro.workloads.tenant.TenantWorkload`,
    so TPC-C tenants can arrive mid-run like key-value ones.
    """

    minute: float
    workload: TenantWorkload
    target_ops: float | None = None

    def compile(self, spec: ScenarioSpec, context: ScenarioContext) -> list[ScheduledAction]:
        return [
            ScheduledAction(
                time_seconds=self.minute * 60.0,
                label=f"tenant-arrival:{self.workload.name}",
                apply=lambda: context.add_tenant(self.workload, self.target_ops),
                annotate=True,
            )
        ]


@dataclass(frozen=True)
class TenantDeparture:
    """A tenant leaves; its client population detaches (data stays)."""

    minute: float
    tenant: str

    def compile(self, spec: ScenarioSpec, context: ScenarioContext) -> list[ScheduledAction]:
        return [
            ScheduledAction(
                time_seconds=self.minute * 60.0,
                label=f"tenant-departure:{self.tenant}",
                apply=lambda: context.remove_tenant(self.tenant),
                annotate=True,
            )
        ]


@dataclass(frozen=True)
class MixShift:
    """A tenant's operation mix interpolates linearly to ``to_mix``.

    Models workload drift -- e.g. YCSB-A (50/50 read/update) morphing into
    YCSB-B-style all-update as a service's cache warms up elsewhere.  The
    starting point is the tenant's declared mix; each control step applies
    the renormalised interpolation.
    """

    tenant: str
    start_minute: float
    end_minute: float
    to_mix: tuple[tuple[str, float], ...]

    def mix_at(self, minute: float, from_mix: dict[str, float]) -> dict[str, float]:
        """Interpolated (renormalised) mix at ``minute``."""
        span = self.end_minute - self.start_minute
        progress = 0.0 if span <= 0 else (minute - self.start_minute) / span
        progress = min(1.0, max(0.0, progress))
        target = dict(self.to_mix)
        blended: dict[str, float] = {}
        # sorted(): the union's raw iteration order is PYTHONHASHSEED-
        # dependent and would decide blended-dict insertion order, which
        # flows into update_workload(op_mix=...).  (lint rule D3)
        for op in sorted(set(from_mix) | set(target)):
            share = (1.0 - progress) * from_mix.get(op, 0.0) + progress * target.get(op, 0.0)
            if share > 1e-12:
                blended[op] = share
        total = sum(blended.values())
        return {op: share / total for op, share in blended.items()}

    def compile(self, spec: ScenarioSpec, context: ScenarioContext) -> list[ScheduledAction]:
        if self.end_minute <= self.start_minute:
            raise ValueError("mix shift needs end_minute > start_minute")
        if self.start_minute >= spec.duration_minutes:
            return []
        source = next(
            (t for t in spec.tenants if t.name == self.tenant), None
        )
        if source is None:
            raise ValueError(f"mix shift targets unknown tenant {self.tenant!r}")
        if not source.workload.supports_mix_shift:
            # A TPC-C tenant's operation mix is *derived* from its
            # transaction mix; interpolating it directly would silently
            # decouple the simulated load from the benchmark's semantics.
            raise ValueError(
                f"mix shift targets tenant {self.tenant!r} whose operation mix "
                f"is derived from {type(source.workload).__name__} semantics "
                "and cannot be shifted; target a YCSB tenant instead"
            )
        from_mix = dict(source.workload.op_mix)
        actions = [
            ScheduledAction(
                time_seconds=self.start_minute * 60.0,
                label=f"mix-shift-start:{self.tenant}",
                apply=lambda: " ".join(
                    f"{op}={share:.2f}" for op, share in sorted(self.to_mix)
                ),
                annotate=True,
            ),
            ScheduledAction(
                time_seconds=min(self.end_minute, spec.duration_minutes) * 60.0,
                label=f"mix-shift-end:{self.tenant}",
                # A shift truncated by the scenario end settles on the
                # interpolated mix at the truncation point, not the target.
                apply=lambda: context.set_mix(
                    self.tenant,
                    self.mix_at(min(self.end_minute, spec.duration_minutes), from_mix),
                ),
                annotate=True,
            ),
        ]
        for t in control_steps(spec, self.start_minute, self.end_minute):
            mix = self.mix_at(t / 60.0, from_mix)
            actions.append(
                ScheduledAction(
                    time_seconds=t,
                    label=f"mix:{self.tenant}",
                    apply=lambda mix=mix: context.set_mix(self.tenant, mix),
                )
            )
        return actions


@dataclass(frozen=True)
class NodeCrash:
    """A node dies abruptly (hypervisor failure) at ``minute``.

    With ``node=None`` the victim is drawn with the run's seeded RNG, so
    "a random node crashes" is still bit-reproducible.
    """

    minute: float
    node: str | None = None

    def compile(self, spec: ScenarioSpec, context: ScenarioContext) -> list[ScheduledAction]:
        return [
            ScheduledAction(
                time_seconds=self.minute * 60.0,
                label="node-crash",
                apply=lambda: context.crash_node(self.node),
                annotate=True,
            )
        ]


@dataclass(frozen=True)
class NodeRecovery:
    """A previously crashed node is repaired and rejoins the cluster.

    With ``node=None`` the most recently crashed unrecovered node rejoins.
    The machine boots for the usual IaaS boot delay before serving again,
    which is what makes *cascading* failures interesting: a second
    :class:`NodeCrash` can land while the first victim is still rebooting.
    """

    minute: float
    node: str | None = None

    def compile(self, spec: ScenarioSpec, context: ScenarioContext) -> list[ScheduledAction]:
        return [
            ScheduledAction(
                time_seconds=self.minute * 60.0,
                label="node-rejoin",
                apply=lambda: context.recover_crashed_node(self.node),
                annotate=True,
            )
        ]


@dataclass(frozen=True)
class NodeSlowdown:
    """A node degrades to ``factor`` of its hardware budgets (straggler).

    The per-resource factors override ``factor`` for one budget each, so a
    fault can hit a single resource -- ``network_factor=0.15`` with the
    others untouched is a congested link (slow-network partition), not a
    slow machine.  With a ``duration_minutes`` the node recovers afterwards;
    the recovery action targets whichever victim the slowdown picked at fire
    time.
    """

    minute: float
    node: str | None = None
    factor: float = 0.5
    cpu_factor: float | None = None
    disk_factor: float | None = None
    network_factor: float | None = None
    duration_minutes: float | None = None

    def compile(self, spec: ScenarioSpec, context: ScenarioContext) -> list[ScheduledAction]:
        victims: list[str] = []

        def slow() -> str:
            victim = context.fault_victim(self.node)
            if victim is None:
                return f"{self.node} not in cluster"
            victims.append(victim)
            return context.slow_node(
                victim,
                self.factor,
                cpu=self.cpu_factor,
                disk=self.disk_factor,
                network=self.network_factor,
            )

        def recover() -> str:
            if not victims:
                return "no victim"
            return context.recover_node(victims[0])

        actions = [
            ScheduledAction(
                time_seconds=self.minute * 60.0,
                label="node-slowdown",
                apply=slow,
                annotate=True,
            )
        ]
        if self.duration_minutes is not None:
            actions.append(
                ScheduledAction(
                    time_seconds=(self.minute + self.duration_minutes) * 60.0,
                    label="node-recovery",
                    apply=recover,
                    annotate=True,
                )
            )
        return actions


@dataclass(frozen=True)
class DataGrowthBurst:
    """A tenant's dataset grows by ``growth_factor`` over a window.

    Growth is geometric and proportional to elapsed time: each control gap
    applies ``growth_factor ** (gap / duration)``, so a full window
    integrates to exactly ``growth_factor`` regardless of the control
    interval, and a burst truncated by the scenario end applies only the
    elapsed share of the growth.
    """

    tenant: str
    start_minute: float
    duration_minutes: float
    growth_factor: float = 2.0

    def compile(self, spec: ScenarioSpec, context: ScenarioContext) -> list[ScheduledAction]:
        if self.growth_factor <= 0:
            raise ValueError("growth factor must be positive")
        if self.duration_minutes <= 0:
            raise ValueError("growth burst needs a positive duration")
        if self.start_minute >= spec.duration_minutes:
            return []
        steps = control_steps(
            spec, self.start_minute, self.start_minute + self.duration_minutes
        )
        duration_seconds = self.duration_minutes * 60.0
        actions = [
            ScheduledAction(
                time_seconds=self.start_minute * 60.0,
                label=f"data-growth-start:{self.tenant}",
                apply=lambda: f"x{self.growth_factor} over {self.duration_minutes}m",
                annotate=True,
            ),
            ScheduledAction(
                time_seconds=steps[-1] if steps else self.start_minute * 60.0,
                label=f"data-growth-end:{self.tenant}",
                apply=lambda: "burst complete",
                annotate=True,
            ),
        ]
        for previous, t in zip(steps, steps[1:]):
            factor = self.growth_factor ** ((t - previous) / duration_seconds)
            actions.append(
                ScheduledAction(
                    time_seconds=t,
                    label=f"grow:{self.tenant}",
                    apply=lambda factor=factor: context.grow_tenant_data(
                        self.tenant, factor
                    ),
                )
            )
        return actions
