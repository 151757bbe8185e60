"""Partition classification by access pattern (Stage C, part 1).

Data partitions are divided into four groups (Sections 3.3, 4.2.3 and 5):

* ``read`` -- more than 60% of total requests are read requests;
* ``write`` -- more than 60% of total requests are write requests;
* ``scan`` -- more than 60% of the read requests are scans;
* ``read_write`` -- every other case.

Partitions are :class:`~repro.monitoring.collector.PartitionSample` records
throughout Stage C: a monitoring window's counts under MeT, a tenant's
expected counts under the Manual-Heterogeneous layout.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable

from repro.monitoring.collector import PartitionSample


class AccessPattern(str, enum.Enum):
    """The four access-pattern groups of the paper."""

    READ = "read"
    WRITE = "write"
    READ_WRITE = "read_write"
    SCAN = "scan"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def classify_partition(
    reads: float,
    writes: float,
    scans: float,
    threshold: float = 0.60,
) -> AccessPattern:
    """Classify one partition from its read/write/scan request counts."""
    total = reads + writes + scans
    if total <= 0:
        return AccessPattern.READ_WRITE
    read_like = reads + scans
    if read_like > 0 and read_like / total > threshold and scans / read_like > threshold:
        return AccessPattern.SCAN
    if reads / total > threshold:
        return AccessPattern.READ
    if writes / total > threshold:
        return AccessPattern.WRITE
    return AccessPattern.READ_WRITE


def classify_partitions(
    partitions: Iterable[PartitionSample],
    threshold: float = 0.60,
) -> dict[AccessPattern, list[PartitionSample]]:
    """Group partitions by access pattern, non-empty groups in enum order.

    Partitions that received no requests during the window are grouped as
    ``read_write`` (the neutral profile) so they still get assigned somewhere.
    """
    groups: dict[AccessPattern, list[PartitionSample]] = {
        pattern: [] for pattern in AccessPattern
    }
    for sample in partitions:
        pattern = classify_partition(
            sample.reads, sample.writes, sample.scans, threshold
        )
        groups[pattern].append(sample)
    return {pattern: members for pattern, members in groups.items() if members}
