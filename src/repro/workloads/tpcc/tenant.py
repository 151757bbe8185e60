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

from dataclasses import dataclass, field

from repro.workloads.tenant import TenantRegionSpec, TenantWorkload
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
    must be unique per simulator.  ``target_ops_per_second`` caps the client
    population in simulator key-value ops/s (the unit load-shaping events
    modulate); tpmC is the *reporting* unit, converted via the transaction
    mix.  The client population is the configuration's ``clients``.
    """

    name: str = "tpcc"
    config: TPCCConfig = field(default_factory=TPCCConfig)
    target_ops_per_second: float | None = None

    unit_label = "tpmC"
    supports_mix_shift = False
    record_size = TPCC_RECORD_SIZE
    scan_length = TPCC_SCAN_LENGTH

    @property
    def threads(self) -> int:
        return self.config.clients

    @property
    def binding_name(self) -> str:
        return self.name

    @property
    def op_mix(self) -> dict[str, float]:
        return aggregate_operation_mix()

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
                record_size=self.record_size,
                scan_length=self.scan_length,
                hot_data_fraction=TPCC_HOT_DATA_FRACTION,
                hot_request_fraction=TPCC_HOT_REQUEST_FRACTION,
            )
            for partition_id in partition_ids
        ]
