"""Workload generators: YCSB core workloads A-F and a TPC-C (PyTPCC) port.

Both implement the :class:`TenantWorkload` protocol -- a
:class:`YCSBWorkload` is a tenant itself, :class:`TPCCTenant` wraps a TPC-C
scale configuration -- and :func:`materialise_tenants` is the one way any
mix of them enters the simulator, so heterogeneous tenants compose in one
cluster.
"""

from repro.workloads.tenant import (
    TenantRegionSpec,
    TenantWorkload,
    materialise_tenants,
)
from repro.workloads.tpcc.tenant import TPCCTenant
from repro.workloads.ycsb.workloads import CORE_WORKLOADS, YCSBWorkload

__all__ = [
    "CORE_WORKLOADS",
    "TPCCTenant",
    "TenantRegionSpec",
    "TenantWorkload",
    "YCSBWorkload",
    "materialise_tenants",
]
