"""Service-level objectives over per-tenant quality series.

An :class:`SLODefinition` declares what one tenant was promised -- a latency
ceiling, a throughput floor, or both.  :func:`evaluate_slo` judges a finished
run's recorded :class:`~repro.experiments.harness.TenantSeriesPoint` samples
against the promise and produces an :class:`SLOReport`: the per-sample
violation series plus the aggregate *violation-minutes* the paper-style
quality-per-dollar comparison needs (a controller that holds latency by
burning twice the machines is only "better" until the cost envelope says
otherwise -- see :mod:`repro.sla.cost`).

Definitions are pure frozen data so scenario specs can embed them; tenants
are named the way scenarios name them (``"A"``), and the evaluator resolves
the binding-level series key (``"workload-A"``) itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sla.units import OPS_PER_SECOND, to_native_rate
from repro.workloads.ycsb.workloads import binding_name

__all__ = [
    "SLODefinition",
    "SLOReport",
    "SLOViolation",
    "evaluate_slo",
    "evaluate_slos",
    "post_warmup_points",
    "tenant_points",
]


@dataclass(frozen=True)
class SLODefinition:
    """What one tenant was promised.

    ``latency_ceiling_ms`` bounds the tenant's mean request latency per
    sampling window; ``p95_ceiling_ms``/``p99_ceiling_ms`` bound the tail
    of the window's latency *distribution* (the exact merged
    :class:`~repro.simulation.latency.LatencySummary` quantiles the harness
    records per sample -- a promise a window mean cannot express);
    ``throughput_floor`` guarantees a minimum achieved rate, declared in
    ``unit`` -- the simulator's ``"ops/s"`` by default, or a tenant's
    native unit (``"tpmC"`` for TPC-C; see :mod:`repro.sla.units`), in
    which case each observed sample is converted before judging.  Any bound
    may be ``None``; at least one must be set.  Percentile bounds are
    always in milliseconds (the unit registry only governs throughput
    floors).  ``warmup_minutes`` exempts the tenant's cold start --
    closed-loop throughput ramps from the solver's seed during its first
    samples, and an SLO should judge steady-state service, not the
    simulator warming up.  The warmup is measured from the start of the
    *tenant's* first recorded window (a mid-run arrival gets the same ramp
    grace as a run-start tenant), and a sample is exempt unless its whole
    sampling window lies past it (see :func:`post_warmup_points`).
    """

    tenant: str
    latency_ceiling_ms: float | None = None
    throughput_floor: float | None = None
    warmup_minutes: float = 1.0
    unit: str = OPS_PER_SECOND
    p95_ceiling_ms: float | None = None
    p99_ceiling_ms: float | None = None

    def __post_init__(self) -> None:
        bounds = (
            self.latency_ceiling_ms,
            self.p95_ceiling_ms,
            self.p99_ceiling_ms,
            self.throughput_floor,
        )
        if all(bound is None for bound in bounds):
            raise ValueError(
                f"SLO for tenant {self.tenant!r} needs a latency/percentile "
                "ceiling and/or a throughput floor"
            )
        for label, ceiling in (
            ("latency", self.latency_ceiling_ms),
            ("p95", self.p95_ceiling_ms),
            ("p99", self.p99_ceiling_ms),
        ):
            if ceiling is not None and ceiling <= 0:
                raise ValueError(f"{label} ceiling must be positive")
        if self.throughput_floor is not None and self.throughput_floor < 0:
            raise ValueError("throughput floor must be non-negative")
        # Reject unknown units at declaration time, not at evaluation time:
        # a typo'd unit in a spec should fail when the spec is built.
        to_native_rate(self.unit, 0.0)

    def describe(self) -> str:
        """Canonical one-line rendering, e.g. ``A: latency<=40ms p95<=60ms``."""
        bounds = []
        if self.latency_ceiling_ms is not None:
            bounds.append(f"latency<={self.latency_ceiling_ms:g}ms")
        if self.p95_ceiling_ms is not None:
            bounds.append(f"p95<={self.p95_ceiling_ms:g}ms")
        if self.p99_ceiling_ms is not None:
            bounds.append(f"p99<={self.p99_ceiling_ms:g}ms")
        if self.throughput_floor is not None:
            bounds.append(f"throughput>={self.throughput_floor:g}{self.unit}")
        return f"{self.tenant}: " + " ".join(bounds)


@dataclass(frozen=True)
class SLOViolation:
    """One sample that broke the promise."""

    minute: float
    kind: str  # "latency", "p95", "p99" or "throughput"
    observed: float
    bound: float


@dataclass(frozen=True)
class SLOReport:
    """Verdict of one SLO against one finished run."""

    slo: SLODefinition
    #: Samples judged (after the warmup exemption).
    samples: int
    #: Minutes of wall-clock each sample stands for.
    sample_minutes: float
    violations: tuple[SLOViolation, ...]

    @property
    def violation_minutes(self) -> float:
        """Total minutes the tenant spent out of SLO."""
        return len(self.violations) * self.sample_minutes

    @property
    def satisfied(self) -> bool:
        """Whether the promise held for the whole (post-warmup) run."""
        return not self.violations

    @property
    def compliance(self) -> float:
        """Fraction of judged samples inside the SLO (1.0 when none judged)."""
        if self.samples == 0:
            return 1.0
        return 1.0 - len(self.violations) / self.samples


def tenant_points(run, tenant: str) -> list:
    """A tenant's recorded series, accepting scenario or binding names."""
    series = run.tenant_series
    points = series.get(binding_name(tenant))
    if points is None:
        points = series.get(tenant, [])
    return points


def post_warmup_points(points, warmup_minutes: float) -> list:
    """Samples whose whole window lies past the warmup exemption.

    Each recorded sample is a *window mean* ending at its ``minute``, so a
    sample is only judged when its window **starts** at or after the
    warmup deadline -- filtering on the end minute would judge a sample
    composed almost entirely of warmup-period ticks.  The window start is
    the preceding sample's minute.

    The warmup clock starts at the beginning of the **tenant's first
    recorded window**, not at the run start: a tenant arriving at minute 30
    with a 2-minute warmup ramps its closed loop from the solver's seed
    exactly like a run-start tenant does, so it gets the same exemption
    window (measuring from the run start would judge its ramp-up samples
    the moment the first one passed).  The first window's start is inferred
    from the series' sampling cadence -- the gap between the first two
    samples; a single-sample series falls back to a window from the run
    start, which exempts the sample under any positive warmup.
    """
    if not points:
        return []
    if len(points) > 1:
        cadence = points[1].minute - points[0].minute
    else:
        cadence = points[0].minute
    first_window_start = max(0.0, points[0].minute - cadence)
    deadline = first_window_start + warmup_minutes
    judged = []
    window_start = first_window_start
    for point in points:
        if window_start >= deadline - 1e-9:
            judged.append(point)
        window_start = point.minute
    return judged


def evaluate_slo(slo: SLODefinition, run, sample_minutes: float = 1.0) -> SLOReport:
    """Judge one SLO against a run's recorded tenant series.

    ``sample_minutes`` is the wall-clock weight of one recorded sample (the
    harness default samples once a minute); violation-minutes scale with it.
    A sample out of SLO counts **once** even when it breaches several bounds
    of a multi-bound SLO -- violation-minutes measure time out of SLO, not
    bounds broken -- with mean latency, then p95, then p99 taking precedence
    over throughput in the per-kind breakdown (a saturated tenant usually
    breaches several, and latency is the tenant-visible symptom).  A tenant
    with no recorded series produces an empty, satisfied report -- the
    caller declared an SLO for a tenant that never ran, which the
    scenario-level assertions surface separately.

    Percentile ceilings judge the sample's recorded window-distribution
    quantiles (``point.p95_ms``/``point.p99_ms``).  A percentile ceiling
    against a run whose harness recorded no latency distributions is a
    declaration error, not a pass: it raises ``ValueError`` instead of
    silently judging nothing.

    Throughput floors declared in a native unit (``unit="tpmC"``) convert
    each observed ops/s sample into that unit before comparing, and the
    violation's ``observed``/``bound`` are recorded natively.
    """
    points = post_warmup_points(tenant_points(run, slo.tenant), slo.warmup_minutes)
    violations: list[SLOViolation] = []

    def percentile_observed(point, percentile: int) -> float:
        observed = getattr(point, f"p{percentile}_ms", None)
        if observed is None:
            raise ValueError(
                f"SLO for tenant {slo.tenant!r} declares a p{percentile} ceiling "
                "but the run recorded no latency distributions (was the "
                "run built by hand, without a harness?)"
            )
        return observed

    for point in points:
        if (
            slo.latency_ceiling_ms is not None
            and point.latency_ms > slo.latency_ceiling_ms
        ):
            violations.append(
                SLOViolation(
                    minute=point.minute,
                    kind="latency",
                    observed=point.latency_ms,
                    bound=slo.latency_ceiling_ms,
                )
            )
        elif (
            slo.p95_ceiling_ms is not None
            and percentile_observed(point, 95) > slo.p95_ceiling_ms
        ):
            violations.append(
                SLOViolation(
                    minute=point.minute,
                    kind="p95",
                    observed=point.p95_ms,
                    bound=slo.p95_ceiling_ms,
                )
            )
        elif (
            slo.p99_ceiling_ms is not None
            and percentile_observed(point, 99) > slo.p99_ceiling_ms
        ):
            violations.append(
                SLOViolation(
                    minute=point.minute,
                    kind="p99",
                    observed=point.p99_ms,
                    bound=slo.p99_ceiling_ms,
                )
            )
        elif slo.throughput_floor is not None:
            observed = to_native_rate(slo.unit, point.throughput)
            if observed < slo.throughput_floor:
                violations.append(
                    SLOViolation(
                        minute=point.minute,
                        kind="throughput",
                        observed=observed,
                        bound=slo.throughput_floor,
                    )
                )
    return SLOReport(
        slo=slo,
        samples=len(points),
        sample_minutes=sample_minutes,
        violations=tuple(violations),
    )


def evaluate_slos(slos, run, sample_minutes: float = 1.0) -> list[SLOReport]:
    """Judge every declared SLO, in declaration order."""
    return [evaluate_slo(slo, run, sample_minutes) for slo in slos]
