"""The workload-agnostic tenant protocol, and the one way a tenant enters
the simulator.

A :class:`TenantWorkload` is what the experiments and the scenario engine
need from a tenant -- a name, a simulator binding factory, partition/region
specs, the nominal/target rate semantics the load-shaping events modulate,
and the tenant's native throughput unit -- so heterogeneous tenants (YCSB
key-value tenants next to TPC-C transactional tenants) compose in one
cluster, the heterogeneous-workload case the paper's data-placement argument
is about.  One object is one configured tenant: it carries its own cap
(``target_ops_per_second``), which scenario specs, mid-run arrivals and
campaign scales all read and replace (:meth:`TenantWorkload.with_target`).
:func:`materialise_tenants` turns any mix of them into regions, client
bindings and the expected per-partition request counts
(:class:`~repro.monitoring.collector.PartitionSample` records, ``node=None``)
the manual placement strategies balance.

Implementations:

* :class:`~repro.workloads.ycsb.workloads.YCSBWorkload` is itself a tenant
  (``ops/s`` unit, mix shifts allowed);
* :class:`~repro.workloads.tpcc.tenant.TPCCTenant` maps a TPC-C scale
  configuration onto warehouse-aligned partitions and reports in tpmC; its
  operation mix is transaction-derived, so mix shifts are rejected at
  scenario compile time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.monitoring.collector import PartitionSample
from repro.simulation.workload import WorkloadBinding

__all__ = [
    "NOMINAL_OPS_PER_THREAD",
    "OP_RATE_FACTORS",
    "TenantRegionSpec",
    "TenantWorkload",
    "materialise_tenants",
    "nominal_rate_estimate",
]

#: Nominal ops/s one client thread sustains on a pure-read mix; the base of
#: every tenant's nominal-rate estimate.
NOMINAL_OPS_PER_THREAD = 320.0

#: Relative service rate of each operation type (scans are an order of
#: magnitude more expensive than point operations).  One copy shared by the
#: YCSB and TPC-C estimators so heterogeneous tenants are sized on one
#: scale -- manual placement weighs their partitions against each other.
OP_RATE_FACTORS = {
    "read": 1.0,
    "update": 0.9,
    "insert": 0.9,
    "scan": 0.12,
    "read_modify_write": 0.5,
}


def nominal_rate_estimate(threads: int, op_mix: dict[str, float]) -> float:
    """Expected unconstrained ops/s of ``threads`` clients issuing ``op_mix``."""
    factor = sum(share * OP_RATE_FACTORS[op] for op, share in op_mix.items())
    return threads * NOMINAL_OPS_PER_THREAD * factor


@dataclass(frozen=True)
class TenantRegionSpec:
    """One data partition of a tenant, as the simulator needs to create it.

    ``weight`` is the fraction of the tenant's requests addressed to the
    partition (weights sum to 1 across a tenant); the hot-set fractions are
    optional skew hints for the cost model (``None`` keeps the simulator's
    defaults).
    """

    region_id: str
    size_bytes: float
    weight: float
    record_size: int
    scan_length: int
    hot_data_fraction: float | None = None
    hot_request_fraction: float | None = None

    def create_in(self, simulator, workload: str, node: str | None = None):
        """Create this partition in ``simulator`` under the tenant's label.

        The single bridge from a region spec to ``simulator.add_region``,
        shared by run-start materialisation and mid-run arrivals so the two
        paths cannot drift apart; ``None`` hot-set fractions keep the
        simulator's defaults.
        """
        kwargs = {}
        if self.hot_data_fraction is not None:
            kwargs["hot_data_fraction"] = self.hot_data_fraction
        if self.hot_request_fraction is not None:
            kwargs["hot_request_fraction"] = self.hot_request_fraction
        return simulator.add_region(
            region_id=self.region_id,
            workload=workload,
            size_bytes=self.size_bytes,
            node=node,
            record_size=self.record_size,
            scan_length=self.scan_length,
            **kwargs,
        )


class TenantWorkload:
    """What the experiments and the scenario layer need to know about one tenant.

    Implementations are frozen dataclasses (scenario specs stay pure data)
    that declare their data, ``binding_name``, ``op_mix`` and
    ``region_specs()``; the cap, the rate estimate and the client binding
    are built here, once, from those declarations and the attributes below.

    * ``name`` -- the tenant name scenario events reference (``"A"``,
      ``"tpcc"``);
    * ``binding_name`` -- the simulator client-binding name (also the label
      of the tenant's regions and its per-tenant metric series);
    * ``threads`` / ``record_size`` / ``scan_length`` -- the client
      population and the row shape of its requests;
    * ``target_ops_per_second`` -- the tenant's baseline throughput cap in
      simulator ops/s (``None`` = uncapped), the one place a tenant's cap
      is stated; the load-shaping events modulate it, or the nominal
      estimate when there is none;
    * ``unit_label`` -- the tenant's native throughput unit (``"ops/s"``
      for key-value tenants, ``"tpmC"`` for TPC-C); SLO throughput floors
      may be declared in it (see :mod:`repro.sla.units`);
    * ``supports_mix_shift`` -- whether the tenant's operation mix is free
      data (:class:`~repro.scenarios.events.MixShift` refuses tenants whose
      mix is derived, like TPC-C's transaction mix).
    """

    #: Native throughput unit of the tenant (overridden per implementation).
    unit_label: str = "ops/s"
    #: Whether MixShift events may target this tenant.
    supports_mix_shift: bool = True

    # Plain annotations, not properties: an implementation may declare any
    # of them as a frozen dataclass field, which a base-class property
    # would block.
    name: str
    threads: int
    record_size: int
    scan_length: int
    target_ops_per_second: float | None

    @property
    def binding_name(self) -> str:
        """Simulator binding / region-label name of this tenant."""
        raise NotImplementedError

    @property
    def op_mix(self) -> dict[str, float]:
        """Operation mix keyed by the simulator's operation types."""
        raise NotImplementedError

    def region_specs(self) -> list[TenantRegionSpec]:
        """The tenant's data partitions, ready for ``simulator.add_region``."""
        raise NotImplementedError

    @property
    def nominal_ops_per_second(self) -> float:
        """Expected request volume: the unconstrained estimate, capped.

        The manual strategies of Section 3.3 balance partitions using the
        *observed* request counts of each workload; this estimate plays
        that role without a profiling run.  Every tenant goes through the
        shared :func:`nominal_rate_estimate`, so heterogeneous tenants size
        on one scale; the cap applies when one is set.
        """
        estimate = nominal_rate_estimate(self.threads, self.op_mix)
        if self.target_ops_per_second is not None:
            estimate = min(estimate, self.target_ops_per_second)
        return estimate

    def with_target(self, target_ops_per_second: float | None) -> "TenantWorkload":
        """A copy of this tenant with its cap replaced (itself if unchanged)."""
        if target_ops_per_second == self.target_ops_per_second:
            return self
        return replace(self, target_ops_per_second=target_ops_per_second)

    def binding(self) -> WorkloadBinding:
        """Build the closed-loop client binding for this tenant."""
        return WorkloadBinding(
            name=self.binding_name,
            threads=self.threads,
            op_mix=self.op_mix,
            region_weights={spec.region_id: spec.weight for spec in self.region_specs()},
            target_ops_per_second=self.target_ops_per_second,
            record_size=self.record_size,
            scan_length=self.scan_length,
        )

    def partition_workloads(self, window_seconds: float = 60.0) -> list[PartitionSample]:
        """Expected per-partition request counts over ``window_seconds``.

        One unplaced :class:`PartitionSample` (``node=None``) per partition.
        The manual placement strategies (and MeT's initial layout) balance
        partitions by expected request counts; these derive from the
        tenant's nominal rate the same way a profiling run would.
        """
        specs = self.region_specs()
        total = self.nominal_ops_per_second * window_seconds
        mix = self.op_mix
        reads = mix.get("read", 0.0) + mix.get("read_modify_write", 0.0)
        writes = (
            mix.get("update", 0.0)
            + mix.get("insert", 0.0)
            + mix.get("read_modify_write", 0.0)
        )
        scans = mix.get("scan", 0.0)
        return [
            PartitionSample(
                partition_id=spec.region_id,
                node=None,
                reads=total * spec.weight * reads,
                writes=total * spec.weight * writes,
                scans=total * spec.weight * scans,
            )
            for spec in specs
        ]


def materialise_tenants(simulator, tenants) -> list[PartitionSample]:
    """Create every tenant's partitions and client binding in ``simulator``.

    ``tenants`` are configured :class:`TenantWorkload` objects (any mix of
    YCSB and TPC-C), created in order.  Partitions are created unassigned;
    the returned expected per-partition request counts (one unplaced
    :class:`PartitionSample` per partition, in creation order) feed the
    initial manual placement, exactly as a profiling run would.
    """
    expected = []
    for tenant in tenants:
        for spec in tenant.region_specs():
            spec.create_in(simulator, tenant.binding_name)
        simulator.attach_workload(tenant.binding())
        expected.extend(tenant.partition_workloads())
    return expected
