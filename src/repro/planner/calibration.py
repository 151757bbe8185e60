"""Calibration: fitting a capacity model from observed runs.

A :class:`CalibrationModel` is the planner's picture of what one node can
do: the achieved throughput per node at which the cluster saturates, and a
monotone load->latency curve mapping per-node request rate to the p95/p99
tail (derived from the run's ``LatencySummary`` distributions, which the
campaign pipeline already reduces to per-run peak percentiles).

Models are fitted from campaign :class:`~repro.campaign.store.ResultsStore`
records -- every record contributes one operating point ``(per-node rate,
p95, p99)`` where the average node count is recovered from the billed
machine-minutes -- or from fresh seeded probe runs
(:func:`probe_records`) when no campaign store exists yet.  Both paths are
byte-deterministic: the same store (or the same probe grid and seed)
produces an identical model, fingerprinted by :meth:`CalibrationModel.fingerprint`.

The curve is *monotone by construction* (sorted by per-node rate, with a
running max applied to the latencies), which gives the planner its core
guarantee for free: predicted tail latency never improves when a fixed
demand is spread over fewer nodes, so "more nodes never predicts worse
p99" holds for every fitted model, not just well-behaved ones.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from repro.sla.cost import FLAVORS, REGIONSERVER_FLAVOR, Flavor

__all__ = [
    "CalibrationModel",
    "CalibrationPoint",
    "DEFAULT_CALIBRATION",
    "fit_calibration",
    "probe_records",
]


@dataclass(frozen=True)
class CalibrationPoint:
    """One observed operating point of a single node.

    ``per_node_rate`` is the achieved throughput (simulator ops/s) divided
    by the average online node count of the run that produced it; the
    latencies are the run's peak tail percentiles at that load.
    """

    per_node_rate: float
    p95_ms: float
    p99_ms: float


@dataclass(frozen=True)
class CalibrationModel:
    """A fitted per-node capacity and load->tail-latency model.

    ``curve`` is sorted ascending by per-node rate with non-decreasing
    latencies; the last point's rate is the per-node saturation knee
    (:attr:`max_per_node_rate`).  ``base_vcpus`` records the vCPU count of
    the flavor the curve was measured on; other flavors are extrapolated
    linearly in vCPUs (a modelling assumption, flagged in predictions by
    ``flavor`` != base).
    """

    name: str
    base_flavor: str
    base_vcpus: int
    curve: tuple[CalibrationPoint, ...]

    def __post_init__(self) -> None:
        if not self.curve:
            raise ValueError("calibration curve must have at least one point")
        rates = [point.per_node_rate for point in self.curve]
        if rates != sorted(rates) or len(set(rates)) != len(rates):
            raise ValueError("calibration curve must be strictly increasing in rate")
        for field in ("p95_ms", "p99_ms"):
            values = [getattr(point, field) for point in self.curve]
            if any(b < a for a, b in zip(values, values[1:])):
                raise ValueError(f"calibration curve must be monotone in {field}")

    # ------------------------------------------------------------------ #
    # capacity
    # ------------------------------------------------------------------ #
    @property
    def max_per_node_rate(self) -> float:
        """Highest observed per-node throughput (the saturation knee)."""
        return self.curve[-1].per_node_rate

    def flavor_scale(self, flavor: str | Flavor | None = None) -> float:
        """Capacity of ``flavor`` relative to the calibrated base flavor."""
        if flavor is None:
            return 1.0
        if isinstance(flavor, Flavor):
            resolved = flavor
        elif flavor == REGIONSERVER_FLAVOR.name:
            resolved = REGIONSERVER_FLAVOR
        else:
            try:
                resolved = FLAVORS[flavor]
            except KeyError:
                raise KeyError(
                    f"unknown flavor {flavor!r}; known: "
                    f"{sorted(FLAVORS) + [REGIONSERVER_FLAVOR.name]}"
                ) from None
        return resolved.vcpus / self.base_vcpus

    def flavor_capacity(self, flavor: str | Flavor | None = None) -> float:
        """Saturation throughput (ops/s) of one node of ``flavor``."""
        return self.max_per_node_rate * self.flavor_scale(flavor)

    # ------------------------------------------------------------------ #
    # prediction
    # ------------------------------------------------------------------ #
    def _interpolate(self, per_node_rate: float, field: str) -> float:
        curve = self.curve
        if per_node_rate > curve[-1].per_node_rate:
            return math.inf  # beyond the observed envelope: infeasible
        if per_node_rate <= curve[0].per_node_rate:
            return getattr(curve[0], field)
        for lo, hi in zip(curve, curve[1:]):
            if per_node_rate <= hi.per_node_rate:
                span = hi.per_node_rate - lo.per_node_rate
                frac = (per_node_rate - lo.per_node_rate) / span
                a, b = getattr(lo, field), getattr(hi, field)
                return a + frac * (b - a)
        return math.inf  # unreachable; defensive

    def predict_p95(
        self, rate: float, nodes: int, flavor: str | Flavor | None = None
    ) -> float:
        """Predicted peak p95 (ms) serving ``rate`` ops/s on ``nodes`` nodes.

        ``math.inf`` when the per-node load exceeds the calibrated envelope.
        """
        return self._predict(rate, nodes, flavor, "p95_ms")

    def predict_p99(
        self, rate: float, nodes: int, flavor: str | Flavor | None = None
    ) -> float:
        """Predicted peak p99 (ms); ``math.inf`` beyond the envelope."""
        return self._predict(rate, nodes, flavor, "p99_ms")

    def _predict(
        self, rate: float, nodes: int, flavor: str | Flavor | None, field: str
    ) -> float:
        if nodes < 1:
            return math.inf
        per_node = rate / (nodes * self.flavor_scale(flavor))
        return self._interpolate(per_node, field)

    def nodes_for(
        self,
        target_rate: float,
        p95_ceiling_ms: float | None = None,
        p99_ceiling_ms: float | None = None,
        flavor: str | Flavor | None = None,
        max_nodes: int = 512,
    ) -> int | None:
        """Minimal node count serving ``target_rate`` under the ceilings.

        ``None`` when no count up to ``max_nodes`` satisfies every bound.
        Because the curve is monotone, the first satisfying count is found
        by scanning upward from the capacity floor.
        """
        if target_rate <= 0.0:
            return 1
        capacity = self.flavor_capacity(flavor)
        floor = max(1, math.ceil(target_rate / capacity - 1e-9))
        for nodes in range(floor, max_nodes + 1):
            if p95_ceiling_ms is not None:
                if self.predict_p95(target_rate, nodes, flavor) > p95_ceiling_ms:
                    continue
            if p99_ceiling_ms is not None:
                if self.predict_p99(target_rate, nodes, flavor) > p99_ceiling_ms:
                    continue
            return nodes
        return None

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    def to_json(self) -> str:
        """Canonical JSON (sorted keys, fixed layout) for fingerprinting."""
        payload = {
            "name": self.name,
            "base_flavor": self.base_flavor,
            "base_vcpus": self.base_vcpus,
            "curve": [
                {
                    "per_node_rate": point.per_node_rate,
                    "p95_ms": point.p95_ms,
                    "p99_ms": point.p99_ms,
                }
                for point in self.curve
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=1)

    def fingerprint(self) -> str:
        """SHA-256 of the canonical JSON: the byte-determinism handle."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------- #
# fitting
# ---------------------------------------------------------------------- #
def _scenario_duration_minutes(scenario: str) -> float:
    # Imported lazily: the catalog pulls in the assertion DSL and through it
    # the SLA layer, and this module must stay importable from either side.
    from repro.scenarios.catalog import CANNED_SCENARIOS

    try:
        spec = CANNED_SCENARIOS[scenario]
    except KeyError:
        raise ValueError(
            f"record references scenario {scenario!r} which is not in the "
            "catalog; give the record its own duration_minutes"
        ) from None
    return spec.duration_seconds / 60.0


def fit_calibration(
    records,
    name: str = "fitted",
    base_flavor: Flavor = REGIONSERVER_FLAVOR,
) -> CalibrationModel:
    """Fit a :class:`CalibrationModel` from campaign-style records.

    ``records`` are dicts with the campaign store's per-cell keys; each
    contributes one operating point.  The average online node count of a
    run is recovered as ``machine_minutes / duration_minutes``, where the
    duration comes from the record's own ``duration_minutes`` key if
    present, else from the scenario catalog.  Records without tail-latency
    data are skipped.

    The fit is a pure function of the record values: points are sorted by
    per-node rate, duplicates merged by max latency, and latencies forced
    monotone with a running max -- so the same store always yields the
    same model (see :meth:`CalibrationModel.fingerprint`).
    """
    observed: dict[float, tuple[float, float]] = {}
    for record in records:
        p95 = record.get("p95_ms")
        p99 = record.get("p99_ms")
        machine_minutes = record.get("machine_minutes", 0.0)
        throughput = record.get("mean_throughput", 0.0)
        if p95 is None or p99 is None or machine_minutes <= 0.0 or throughput <= 0.0:
            continue
        duration = record.get("duration_minutes")
        if duration is None:
            duration = _scenario_duration_minutes(record["scenario"])
        avg_nodes = machine_minutes / duration
        if avg_nodes <= 0.0:
            continue
        per_node_rate = throughput / avg_nodes
        prior = observed.get(per_node_rate)
        if prior is None:
            observed[per_node_rate] = (p95, p99)
        else:
            observed[per_node_rate] = (max(prior[0], p95), max(prior[1], p99))
    if not observed:
        raise ValueError("no usable records: need tail latencies and machine-minutes")
    points = []
    running_p95 = running_p99 = 0.0
    for rate in sorted(observed):
        p95, p99 = observed[rate]
        running_p95 = max(running_p95, p95)
        running_p99 = max(running_p99, p99)
        points.append(
            CalibrationPoint(per_node_rate=rate, p95_ms=running_p95, p99_ms=running_p99)
        )
    return CalibrationModel(
        name=name,
        base_flavor=base_flavor.name,
        base_vcpus=base_flavor.vcpus,
        curve=tuple(points),
    )


def probe_records(
    scenarios: tuple[str, ...] = ("tpcc_steady", "mixed_tenancy"),
    loads: tuple[float, ...] = (0.4, 0.7, 1.0, 1.5, 2.0, 3.0, 4.0),
    controller: str = "none",
    master_seed: int = 0,
) -> list[dict]:
    """Run fresh seeded probe cells and return their campaign store records.

    The probe sweep is a campaign grid -- the catalog ``scenarios`` under
    one ``controller``, one scale per load multiplier, one seed -- whose
    cells are reduced by the campaign's own
    :func:`~repro.campaign.runner.cell_record`, so it is as
    byte-deterministic as a campaign store.  Probes run under
    ``controller="none"`` by default: a fixed-size cluster swept across
    load multipliers gives clean per-node operating points (the node count
    never moves mid-run, so machine-minutes divide exactly).
    """
    from repro.campaign.grid import CampaignGrid, ScaleSpec
    from repro.campaign.runner import cell_record
    from repro.scenarios.catalog import CANNED_SCENARIOS

    grid = CampaignGrid(
        scenarios=tuple(CANNED_SCENARIOS[scenario] for scenario in scenarios),
        controllers=(controller,),
        scales=tuple(ScaleSpec(name=f"probe-{load:g}x", load=load) for load in loads),
        seeds=1,
        master_seed=master_seed,
    )
    return [cell_record(cell, grid.spec_for(cell)) for cell in grid.cells()]


#: Default model: fitted from the seeded probe sweep above
#: (``fit_calibration(probe_records(), name="catalog-probe-v1")`` at master
#: seed 0 -- regenerate with ``scripts/plan.py --recalibrate`` after solver
#: or catalog changes; a regression test pins this equality).  Baked in so
#: planner-controlled scenario runs and ``scripts/plan.py`` need no
#: campaign store to exist.
DEFAULT_CALIBRATION = CalibrationModel(
    name="catalog-probe-v1",
    base_flavor=REGIONSERVER_FLAVOR.name,
    base_vcpus=REGIONSERVER_FLAVOR.vcpus,
    curve=(
        CalibrationPoint(per_node_rate=320.0013020836439, p95_ms=0.8413951416451948, p99_ms=0.8413951416451948),
        CalibrationPoint(per_node_rate=559.9778645830035, p95_ms=0.9440608762859236, p99_ms=0.9440608762859236),
        CalibrationPoint(per_node_rate=799.9544270826541, p95_ms=1.0592537251772887, p99_ms=1.0592537251772887),
        CalibrationPoint(per_node_rate=988.9846026235774, p95_ms=1.0592537251772887, p99_ms=1.0592537251772887),
        CalibrationPoint(per_node_rate=1199.9153645827028, p95_ms=1.188502227437019, p99_ms=1.188502227437019),
        CalibrationPoint(per_node_rate=1599.8763020824115, p95_ms=1.333521432163324, p99_ms=1.333521432163324),
        CalibrationPoint(per_node_rate=1730.6453734833058, p95_ms=1.333521432163324, p99_ms=1.333521432163324),
        CalibrationPoint(per_node_rate=2116.990238615487, p95_ms=1.6788040181225607, p99_ms=1.6788040181225607),
        CalibrationPoint(per_node_rate=2212.1864777802643, p95_ms=1.8836490894898001, p99_ms=1.8836490894898001),
        CalibrationPoint(per_node_rate=2472.3061443430347, p95_ms=1.8836490894898001, p99_ms=1.8836490894898001),
        CalibrationPoint(per_node_rate=3114.0330194140315, p95_ms=1.8836490894898001, p99_ms=1.8836490894898001),
        CalibrationPoint(per_node_rate=3219.47294541056, p95_ms=2.1134890398366477, p99_ms=2.1134890398366477),
        CalibrationPoint(per_node_rate=3248.088650743601, p95_ms=2.6607250597988084, p99_ms=2.6607250597988084),
        CalibrationPoint(per_node_rate=3265.4002028593186, p95_ms=2.6607250597988084, p99_ms=2.6607250597988084),
    ),
)
