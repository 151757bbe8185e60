"""Workload generators: YCSB core workloads A-F and a TPC-C (PyTPCC) port.

Both expose scenario-tenant adapters (:class:`YCSBTenant`,
:class:`TPCCTenant`) implementing the :class:`TenantWorkload` protocol the
scenario engine speaks, so heterogeneous tenants compose in one scenario.
"""

from repro.workloads.tenant import TenantRegionSpec, TenantWorkload, as_tenant
from repro.workloads.tpcc.tenant import TPCCTenant
from repro.workloads.ycsb.tenant import YCSBTenant
from repro.workloads.ycsb.workloads import CORE_WORKLOADS, YCSBWorkload

__all__ = [
    "CORE_WORKLOADS",
    "TPCCTenant",
    "TenantRegionSpec",
    "TenantWorkload",
    "YCSBTenant",
    "YCSBWorkload",
    "as_tenant",
]
