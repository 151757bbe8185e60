"""TPC-C workload (PyTPCC-style HBase port).

The paper uses PyTPCC, an HBase implementation of the TPC-C OLTP benchmark,
to show MeT copes with a substantially different, write-intensive workload
without any tuning (Section 6.3): 9 tables, 5 transaction types, a default
mix of roughly 8% read-only and 92% update transactions, results measured in
new-order transactions per minute (tpmC).

The workload is modelled analytically: the schema sizes, the transaction
mix with each transaction's key-value footprint, the tpmC/ops conversions,
and :class:`TPCCTenant`, the tenant that maps the mix onto per-operation
rates for the cluster simulator (the Table 2 experiment and the scenario
tenants).
"""

from repro.workloads.tpcc.driver import ops_rate_from_tpmc, tpmc_from_ops_rate
from repro.workloads.tpcc.schema import TPCC_TABLES, TPCCConfig
from repro.workloads.tpcc.tenant import TPCCTenant
from repro.workloads.tpcc.transactions import TRANSACTION_MIX, TransactionProfile

__all__ = [
    "TPCCConfig",
    "TPCCTenant",
    "TPCC_TABLES",
    "TRANSACTION_MIX",
    "TransactionProfile",
    "ops_rate_from_tpmc",
    "tpmc_from_ops_rate",
]
