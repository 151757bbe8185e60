"""The declarative campaign grid: cells, scales and derived seeds.

A :class:`CampaignGrid` is pure data -- scenario specs x controllers x
:class:`ScaleSpec` x seed indices -- and deterministically expands into
:class:`CampaignCell` objects in a fixed order (scenario, then controller,
then scale, then seed).  Each cell derives its own simulator seed from the
grid's master seed via SHA-256, so reordering or resuming a campaign never
changes what any individual cell computes, and the derivation is immune to
``PYTHONHASHSEED``.

Scales stretch a scenario along the axes a capacity study sweeps: a *load*
multiplier on every tenant's baseline target, *tenant copies* (each copy is
a renamed clone of the original tenant, so partitions and bindings stay
unique), and optional initial/max node-count overrides.  Scenario events
keep addressing the original tenants by name; clones ride along as
background load.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "BASELINE_SCALE",
    "CampaignCell",
    "CampaignGrid",
    "ScaleSpec",
    "apply_scale",
    "derive_seed",
]


@dataclass(frozen=True)
class ScaleSpec:
    """One point on the scale axis of a campaign.

    ``load`` multiplies every capped tenant's ``target_ops_per_second``
    (uncapped tenants are left uncapped -- load events already modulate
    their nominal rate).  ``tenant_copies`` runs each tenant ``n`` times:
    copy 0 keeps the original name (so scenario events still find it),
    copies 1.. are renamed clones.  ``initial_nodes`` / ``max_nodes``
    override the scenario's cluster envelope when set.
    """

    name: str
    load: float = 1.0
    tenant_copies: int = 1
    initial_nodes: int | None = None
    max_nodes: int | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scale needs a name")
        if self.load <= 0:
            raise ValueError(f"scale {self.name!r}: load must be positive")
        if self.tenant_copies < 1:
            raise ValueError(f"scale {self.name!r}: tenant_copies must be >= 1")

    @property
    def is_baseline(self) -> bool:
        """Whether this scale leaves the scenario spec untouched."""
        return (
            self.load == 1.0
            and self.tenant_copies == 1
            and self.initial_nodes is None
            and self.max_nodes is None
        )


BASELINE_SCALE = ScaleSpec(name="1x")


def apply_scale(spec: ScenarioSpec, scale: ScaleSpec) -> ScenarioSpec:
    """Stretch ``spec`` along ``scale``'s axes; identity for the baseline."""
    if scale.is_baseline:
        return spec
    tenants = []
    for tenant in spec.tenants:
        target = tenant.target_ops_per_second
        if target is not None:
            tenant = tenant.with_target(target * scale.load)
        tenants.append(tenant)
        for copy in range(1, scale.tenant_copies):
            # Partition ids and binding names derive from the tenant name,
            # so clones are renamed or they would collide in the simulator.
            tenants.append(replace(tenant, name=f"{tenant.name}~{copy}"))
    overrides: dict = {"tenants": tuple(tenants)}
    if scale.initial_nodes is not None:
        overrides["initial_nodes"] = scale.initial_nodes
    if scale.max_nodes is not None:
        overrides["max_nodes"] = scale.max_nodes
    return replace(spec, **overrides)


def derive_seed(master_seed: int, *parts: str) -> int:
    """Deterministic per-cell seed: SHA-256 of the cell's coordinates.

    Hash-based (not ``random.Random`` streams) so every cell's seed depends
    only on its own coordinates -- adding a scenario or a scale to the grid
    never shifts the seeds of existing cells, which keeps resumed and
    extended campaigns comparable run for run.
    """
    digest = hashlib.sha256(
        "|".join((str(master_seed),) + parts).encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") >> 1  # non-negative 63-bit


@dataclass(frozen=True)
class CampaignCell:
    """One (scenario, controller, scale, seed) run of a campaign."""

    scenario: str
    controller: str
    scale: ScaleSpec
    seed_index: int
    seed: int

    @property
    def cell_id(self) -> str:
        """Stable identity used by the results store to resume campaigns."""
        return f"{self.scenario}|{self.controller}|{self.scale.name}|s{self.seed_index}"


@dataclass(frozen=True)
class CampaignGrid:
    """The full factorial sweep: scenarios x controllers x scales x seeds."""

    scenarios: tuple[ScenarioSpec, ...]
    controllers: tuple[str, ...] = ("met", "tiramola")
    scales: tuple[ScaleSpec, ...] = (BASELINE_SCALE,)
    seeds: int = 3
    master_seed: int = 0

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ValueError("campaign needs at least one scenario")
        if not self.controllers:
            raise ValueError("campaign needs at least one controller")
        if not self.scales:
            raise ValueError("campaign needs at least one scale")
        if self.seeds < 1:
            raise ValueError("campaign needs at least one seed")
        names = [spec.name for spec in self.scenarios]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate scenario names in grid: {names}")
        scale_names = [scale.name for scale in self.scales]
        if len(set(scale_names)) != len(scale_names):
            raise ValueError(f"duplicate scale names in grid: {scale_names}")

    @property
    def size(self) -> int:
        """Number of cells in the grid."""
        return (
            len(self.scenarios) * len(self.controllers) * len(self.scales) * self.seeds
        )

    def cells(self) -> list[CampaignCell]:
        """Every cell, in the grid's canonical (deterministic) order."""
        cells: list[CampaignCell] = []
        for spec in self.scenarios:
            for controller in self.controllers:
                for scale in self.scales:
                    for index in range(self.seeds):
                        cells.append(
                            CampaignCell(
                                scenario=spec.name,
                                controller=controller,
                                scale=scale,
                                seed_index=index,
                                seed=derive_seed(
                                    self.master_seed,
                                    spec.name,
                                    scale.name,
                                    f"s{index}",
                                ),
                            )
                        )
        return cells

    def spec_for(self, cell: CampaignCell) -> ScenarioSpec:
        """The concrete (scaled, reseeded) spec a cell's worker runs.

        The cell seed intentionally ignores the controller axis: both
        controllers of a matchup face the *same* reseeded scenario, which
        is what makes their rows comparable.
        """
        for spec in self.scenarios:
            if spec.name == cell.scenario:
                return replace(apply_scale(spec, cell.scale), seed=cell.seed)
        raise KeyError(f"grid has no scenario named {cell.scenario!r}")
