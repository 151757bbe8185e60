"""YCSB core workload definitions, configured as in the paper (Section 3.1).

* Workload A -- 50% read / 50% update (session store).
* Workload B -- 100% update (stocks management; modified from YCSB's 95/5).
* Workload C -- 100% read (user-profile cache).
* Workload D -- 5% read / 95% insert (logging/history; modified from 95/5),
  only 100 000 initial records, 5 client threads, capped at 1 500 ops/s.
* Workload E -- 95% scan / 5% insert (threaded conversations).
* Workload F -- 50% read / 50% read-modify-write (user database).

Every other workload starts with 1 000 000 records, runs 50 client threads
and is uncapped.  All workloads use the hotspot request distribution with
50% of the requests over 40% of the key space, which yields the paper's
per-partition request split of roughly 34/26/20/20 across 4 equally sized
partitions.

A :class:`YCSBWorkload` is itself a
:class:`~repro.workloads.tenant.TenantWorkload`: it knows its regions, its
closed-loop client binding and its expected request mix, so
:func:`~repro.workloads.tenant.materialise_tenants` builds it into a
simulator like any other tenant.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.workloads.tenant import TenantRegionSpec, TenantWorkload

#: Default value size of a YCSB record (10 fields of 100 bytes).
RECORD_SIZE_BYTES = 1000

#: Request share of each of the 4 equally sized partitions under the paper's
#: hotspot distribution: one hotspot partition (34%), one intermediate (26%)
#: and two lightly loaded ones (20% each).
HOTSPOT_PARTITION_SHARES = (0.34, 0.26, 0.20, 0.20)


def binding_name(workload_name: str) -> str:
    """Binding name of a tenant given its workload name (``"A"`` -> ``"workload-A"``).

    The single source of the naming convention: region labels, client
    bindings and the scenario engine's tenant lookups all go through it.
    """
    return f"workload-{workload_name}"


@dataclass(frozen=True)
class YCSBWorkload(TenantWorkload):
    """One YCSB workload configuration, and the key-value tenant it drives.

    Proportions must sum to 1.  ``partitions`` is the number of equally sized
    data partitions the workload's table is pre-split into; their request
    weights follow the paper's hotspot distribution.
    """

    name: str
    read_proportion: float = 0.0
    update_proportion: float = 0.0
    insert_proportion: float = 0.0
    scan_proportion: float = 0.0
    read_modify_write_proportion: float = 0.0
    record_count: int = 1_000_000
    partitions: int = 4
    threads: int = 50
    target_ops_per_second: float | None = None
    record_size: int = RECORD_SIZE_BYTES
    scan_length: int = 50
    description: str = ""

    def __post_init__(self) -> None:
        total = (
            self.read_proportion
            + self.update_proportion
            + self.insert_proportion
            + self.scan_proportion
            + self.read_modify_write_proportion
        )
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"workload {self.name!r} proportions sum to {total}, expected 1")
        if self.record_count <= 0:
            raise ValueError("record count must be positive")
        if self.partitions <= 0:
            raise ValueError("partitions must be positive")
        if self.threads <= 0:
            raise ValueError("threads must be positive")

    @property
    def op_mix(self) -> dict[str, float]:
        """Operation mix keyed by the simulator's operation types."""
        mix = {
            "read": self.read_proportion,
            "update": self.update_proportion,
            "insert": self.insert_proportion,
            "scan": self.scan_proportion,
            "read_modify_write": self.read_modify_write_proportion,
        }
        return {op: share for op, share in mix.items() if share > 0}

    @property
    def binding_name(self) -> str:
        return binding_name(self.name)

    @property
    def initial_size_bytes(self) -> float:
        """Initial on-disk footprint of the workload's data."""
        return float(self.record_count * self.record_size)

    def partition_ids(self) -> list[str]:
        """Ids of the workload's data partitions."""
        return [f"{self.name}:part-{index}" for index in range(self.partitions)]

    def region_specs(self) -> list[TenantRegionSpec]:
        weights = hotspot_partition_weights(self.partitions)
        per_partition_bytes = self.initial_size_bytes / self.partitions
        return [
            TenantRegionSpec(
                region_id=partition_id,
                size_bytes=per_partition_bytes,
                weight=weight,
                record_size=self.record_size,
                scan_length=self.scan_length,
            )
            for partition_id, weight in zip(self.partition_ids(), weights)
        ]


def hotspot_partition_weights(partitions: int) -> list[float]:
    """Per-partition request shares under the paper's hotspot distribution.

    For 4 partitions this is exactly the paper's 34/26/20/20 split; for other
    counts the hot 40% of the key space receives 50% of the requests and the
    remainder is spread uniformly.
    """
    if partitions <= 0:
        raise ValueError("partitions must be positive")
    if partitions == 1:
        return [1.0]
    if partitions == 4:
        return list(HOTSPOT_PARTITION_SHARES)
    hot_fraction = 0.4
    hot_ops = 0.5
    weights = []
    for index in range(partitions):
        start = index / partitions
        end = (index + 1) / partitions
        hot_overlap = max(0.0, min(end, hot_fraction) - min(start, hot_fraction))
        cold_overlap = (end - start) - hot_overlap
        weight = hot_ops * (hot_overlap / hot_fraction) + (1 - hot_ops) * (
            cold_overlap / (1 - hot_fraction)
        )
        weights.append(weight)
    total = sum(weights)
    return [w / total for w in weights]


WORKLOAD_A = YCSBWorkload(
    name="A",
    read_proportion=0.5,
    update_proportion=0.5,
    description="Session store recording recent actions (read/write mix).",
)

WORKLOAD_B = YCSBWorkload(
    name="B",
    update_proportion=1.0,
    description="Stocks management (write only; modified from YCSB's default).",
)

WORKLOAD_C = YCSBWorkload(
    name="C",
    read_proportion=1.0,
    description="User profile cache built elsewhere (read only).",
)

WORKLOAD_D = YCSBWorkload(
    name="D",
    read_proportion=0.05,
    insert_proportion=0.95,
    record_count=100_000,
    partitions=1,
    threads=5,
    target_ops_per_second=1500.0,
    description="Logging/history: fast growing insert-mostly log.",
)

WORKLOAD_E = YCSBWorkload(
    name="E",
    scan_proportion=0.95,
    insert_proportion=0.05,
    description="Threaded conversations: scans of the posts in a thread.",
)

WORKLOAD_F = YCSBWorkload(
    name="F",
    read_proportion=0.5,
    read_modify_write_proportion=0.5,
    description="User database: records read and modified by the user.",
)

#: The six paper-configured core workloads keyed by letter.
CORE_WORKLOADS: dict[str, YCSBWorkload] = {
    w.name: w for w in (WORKLOAD_A, WORKLOAD_B, WORKLOAD_C, WORKLOAD_D, WORKLOAD_E, WORKLOAD_F)
}
