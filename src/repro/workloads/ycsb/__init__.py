"""YCSB: the Yahoo! Cloud Serving Benchmark workloads.

The paper uses YCSB's six core workloads, re-configured as described in
Section 3.1 (Workload B turned into 100% updates, Workload D into 95%
inserts) so the aggregate read/write ratio is roughly 1.9:1, with keys drawn
from the hotspot distribution (50% of requests to 40% of the key space).
The simulator sees that distribution as analytic per-partition request
shares (:func:`hotspot_partition_weights`), not as sampled keys.

Each :class:`YCSBWorkload` is a scenario tenant in its own right; the
paper's six-tenant cluster is
``materialise_tenants(simulator, CORE_WORKLOADS.values())`` (see
:func:`repro.workloads.tenant.materialise_tenants`).
"""

from repro.workloads.ycsb.workloads import (
    CORE_WORKLOADS,
    PAPER_WORKLOADS,
    YCSBWorkload,
    hotspot_partition_weights,
)

__all__ = [
    "YCSBWorkload",
    "CORE_WORKLOADS",
    "PAPER_WORKLOADS",
    "hotspot_partition_weights",
]
