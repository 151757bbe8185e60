"""TPC-C on the analytical simulator: row shapes and tpmC.

Like PyTPCC, results are reported in new-order transactions per minute
(tpmC); :func:`tpmc_from_ops_rate` and :func:`ops_rate_from_tpmc` convert
between that and the simulator's key-value operation rate.  The constants
describe the rows the transaction mix touches to the cost model; the
client binding itself is built by
:class:`~repro.workloads.tpcc.tenant.TPCCTenant`.
"""

from __future__ import annotations

from repro.workloads.tpcc.transactions import (
    TRANSACTION_MIX,
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


def tpmc_from_ops_rate(ops_per_second: float) -> float:
    """Convert a key-value operation rate into tpmC.

    tpmC counts new-order transactions per minute; the transaction mix and
    the per-transaction operation footprints fix the conversion factor.
    """
    tx_per_second = ops_per_second / operations_per_transaction()
    new_order_share = TRANSACTION_MIX["new_order"].weight
    return tx_per_second * new_order_share * 60.0


def ops_rate_from_tpmc(tpmc: float) -> float:
    """Convert a tpmC figure back into the key-value operation rate.

    Exact inverse of :func:`tpmc_from_ops_rate`; the SLA layer uses it to
    judge simulator ops/s series against throughput floors declared in a
    TPC-C tenant's native unit.
    """
    new_order_share = TRANSACTION_MIX["new_order"].weight
    tx_per_second = tpmc / (new_order_share * 60.0)
    return tx_per_second * operations_per_transaction()
