"""The TPC-C implementation of the scenario tenant protocol.

Maps a :class:`TPCCConfig` onto the scenario layer: warehouse-aligned
partitions (equal request weight each -- the standard uniform-warehouse
traffic assumption), the aggregate key-value operation mix of the standard
transaction mix, and tpmC as the native throughput unit (converted by
:func:`repro.sla.units.to_native_rate`).

TPC-C's operation mix is *derived* from its transaction mix, not free data,
so ``supports_mix_shift`` is false: a :class:`~repro.scenarios.events.MixShift`
targeting a TPC-C tenant is a spec error, caught at compile time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.simulation.workload import WorkloadBinding
from repro.workloads.tenant import (
    TenantRegionSpec,
    TenantWorkload,
    nominal_rate_estimate,
)
from repro.workloads.tpcc.driver import (
    TPCC_HOT_DATA_FRACTION,
    TPCC_HOT_REQUEST_FRACTION,
    TPCC_RECORD_SIZE,
    TPCC_SCAN_LENGTH,
)
from repro.workloads.tpcc.schema import TPCCConfig
from repro.workloads.tpcc.transactions import aggregate_operation_mix

__all__ = ["TPCCTenant"]


@dataclass(frozen=True)
class TPCCTenant(TenantWorkload):
    """One TPC-C tenant (the transactional side of a heterogeneous scenario).

    ``name`` doubles as the binding name and the partition-id prefix, so it
    must be unique per simulator.  ``target_ops`` caps the client population
    in simulator key-value ops/s (the unit load-shaping events modulate);
    tpmC is the *reporting* unit, converted via the transaction mix.
    """

    name: str = "tpcc"
    config: TPCCConfig = field(default_factory=TPCCConfig)
    target_ops: float | None = None

    unit_label = "tpmC"
    supports_mix_shift = False

    @property
    def binding_name(self) -> str:
        return self.name

    @property
    def target_ops_per_second(self) -> float | None:
        return self.target_ops

    @property
    def op_mix(self) -> dict[str, float]:
        return aggregate_operation_mix()

    @property
    def nominal_ops_per_second(self) -> float:
        """Expected unconstrained key-value rate of the client population.

        The shared estimator (:func:`~repro.workloads.tenant.nominal_rate_estimate`,
        the one YCSB uses), so manual placement weighs heterogeneous tenants
        consistently; capped by the configured target.
        """
        estimate = nominal_rate_estimate(self.config.clients, self.op_mix)
        if self.target_ops is not None:
            estimate = min(estimate, self.target_ops)
        return estimate

    def with_target(self, target_ops: float | None) -> "TPCCTenant":
        if target_ops == self.target_ops:
            return self
        return replace(self, target_ops=target_ops)

    def binding(self) -> WorkloadBinding:
        return WorkloadBinding(
            name=self.name,
            threads=self.config.clients,
            op_mix=self.op_mix,
            region_weights={spec.region_id: spec.weight for spec in self.region_specs()},
            target_ops_per_second=self.target_ops,
            record_size=TPCC_RECORD_SIZE,
            scan_length=TPCC_SCAN_LENGTH,
        )

    def region_specs(self) -> list[TenantRegionSpec]:
        config = self.config
        partition_ids = config.partition_ids(prefix=self.name)
        per_partition_bytes = config.database_bytes() / config.partitions
        weight = 1.0 / len(partition_ids)
        return [
            TenantRegionSpec(
                region_id=partition_id,
                size_bytes=per_partition_bytes,
                weight=weight,
                record_size=TPCC_RECORD_SIZE,
                scan_length=TPCC_SCAN_LENGTH,
                hot_data_fraction=TPCC_HOT_DATA_FRACTION,
                hot_request_fraction=TPCC_HOT_REQUEST_FRACTION,
            )
            for partition_id in partition_ids
        ]
