"""TPC-C on the analytical simulator: the client binding and tpmC.

Like PyTPCC, results are reported in new-order transactions per minute
(tpmC); :func:`tpmc_from_ops_rate` and :func:`ops_rate_from_tpmc` convert
between that and the simulator's key-value operation rate.  The
``simulator_binding`` helper maps the standard transaction mix onto the
simulator: one closed-loop client population whose operation mix is the
aggregate key-value footprint of the transactions, addressed to the
warehouse-aligned partitions.
"""

from __future__ import annotations

from repro.simulation.cluster import ClusterSimulator
from repro.simulation.workload import WorkloadBinding
from repro.workloads.tpcc.schema import TPCCConfig
from repro.workloads.tpcc.transactions import (
    TRANSACTION_MIX,
    aggregate_operation_mix,
    operations_per_transaction,
)

#: Average row size used by the analytical binding (order lines dominate).
TPCC_RECORD_SIZE = 256
#: Rows touched by the scan of an Order-Status / Stock-Level transaction.
TPCC_SCAN_LENGTH = 20
#: TPC-C concentrates reads on a small working set of recently written rows
#: (open orders, popular stock); these describe that skew to the cost model.
TPCC_HOT_DATA_FRACTION = 0.05
TPCC_HOT_REQUEST_FRACTION = 0.95


# --------------------------------------------------------------------------- #
# analytical simulator binding
# --------------------------------------------------------------------------- #
def tpmc_from_ops_rate(ops_per_second: float) -> float:
    """Convert a key-value operation rate into tpmC.

    tpmC counts new-order transactions per minute; the transaction mix and
    the per-transaction operation footprints fix the conversion factor.
    """
    tx_per_second = ops_per_second / operations_per_transaction()
    new_order_share = TRANSACTION_MIX["new_order"].weight
    return tx_per_second * new_order_share * 60.0


#: Alias matching the "tpmC from ops" phrasing used around the repo.
tpmc_from_ops = tpmc_from_ops_rate


def ops_rate_from_tpmc(tpmc: float) -> float:
    """Convert a tpmC figure back into the key-value operation rate.

    Exact inverse of :func:`tpmc_from_ops_rate`; the SLA layer uses it to
    judge simulator ops/s series against throughput floors declared in a
    TPC-C tenant's native unit.
    """
    new_order_share = TRANSACTION_MIX["new_order"].weight
    tx_per_second = tpmc / (new_order_share * 60.0)
    return tx_per_second * operations_per_transaction()


def simulator_binding(
    config: TPCCConfig | None = None,
    name: str = "tpcc",
    target_ops_per_second: float | None = None,
) -> WorkloadBinding:
    """Closed-loop client binding for the analytical TPC-C experiment.

    ``name`` names the binding *and* prefixes the warehouse-aligned
    partition ids, so multiple TPC-C tenants can share a simulator;
    ``target_ops_per_second`` optionally caps the client population (in
    simulator key-value ops/s, as with YCSB bindings).
    """
    config = config or TPCCConfig()
    partition_ids = config.partition_ids(prefix=name)
    weight = 1.0 / len(partition_ids)
    return WorkloadBinding(
        name=name,
        threads=config.clients,
        op_mix=aggregate_operation_mix(),
        region_weights={partition_id: weight for partition_id in partition_ids},
        target_ops_per_second=target_ops_per_second,
        record_size=TPCC_RECORD_SIZE,
        scan_length=TPCC_SCAN_LENGTH,
    )


def build_tpcc_scenario(
    simulator: ClusterSimulator,
    config: TPCCConfig | None = None,
    initial_node: str | None = None,
) -> tuple[TPCCConfig, WorkloadBinding]:
    """Create the TPC-C partitions and client binding inside ``simulator``."""
    config = config or TPCCConfig()
    per_partition_bytes = config.database_bytes() / config.partitions
    for partition_id in config.partition_ids():
        simulator.add_region(
            region_id=partition_id,
            workload="tpcc",
            size_bytes=per_partition_bytes,
            node=initial_node,
            record_size=TPCC_RECORD_SIZE,
            scan_length=TPCC_SCAN_LENGTH,
            hot_data_fraction=TPCC_HOT_DATA_FRACTION,
            hot_request_fraction=TPCC_HOT_REQUEST_FRACTION,
        )
    binding = simulator_binding(config)
    simulator.attach_workload(binding)
    return config, binding
