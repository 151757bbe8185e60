"""The five TPC-C transaction types and their operation footprints.

The default TPC-C traffic is a mixture of roughly 8% read-only transactions
(Order-Status and Stock-Level) and 92% update transactions (New-Order,
Payment and Delivery), making it a write-intensive benchmark (Section 6.3).

Each transaction is modelled by a :class:`TransactionProfile`: its mix
weight and its *operation footprint* (how many key-value reads, writes and
scans one execution issues against HBase), which the analytical simulator
binding turns into per-operation rates.  The footprints follow the PyTPCC
HBase driver, where item/stock lookups are issued as batched multi-gets, so
reads are counted per batch rather than per row.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TransactionProfile:
    """Mix weight and key-value operation footprint of one transaction type."""

    name: str
    weight: float
    reads: float
    writes: float
    scans: float
    read_only: bool = False

    @property
    def operations(self) -> float:
        """Total key-value operations per execution."""
        return self.reads + self.writes + self.scans


#: Standard TPC-C transaction mix with the PyTPCC/HBase operation footprints.
TRANSACTION_MIX: dict[str, TransactionProfile] = {
    "new_order": TransactionProfile(
        name="new_order", weight=0.45, reads=12.0, writes=23.0, scans=0.0
    ),
    "payment": TransactionProfile(
        name="payment", weight=0.43, reads=3.0, writes=4.0, scans=0.0
    ),
    "order_status": TransactionProfile(
        name="order_status", weight=0.04, reads=2.0, writes=0.0, scans=1.0, read_only=True
    ),
    "delivery": TransactionProfile(
        name="delivery", weight=0.04, reads=11.0, writes=21.0, scans=0.0
    ),
    "stock_level": TransactionProfile(
        name="stock_level", weight=0.04, reads=1.0, writes=0.0, scans=1.0, read_only=True
    ),
}


def aggregate_operation_mix() -> dict[str, float]:
    """Key-value operation mix implied by the transaction mix.

    Returns fractions over the simulator's operation types (reads map to
    ``read``, writes to ``update``, scans to ``scan``).
    """
    reads = sum(p.weight * p.reads for p in TRANSACTION_MIX.values())
    writes = sum(p.weight * p.writes for p in TRANSACTION_MIX.values())
    scans = sum(p.weight * p.scans for p in TRANSACTION_MIX.values())
    total = reads + writes + scans
    return {"read": reads / total, "update": writes / total, "scan": scans / total}


def operations_per_transaction() -> float:
    """Average key-value operations issued per transaction."""
    return sum(p.weight * p.operations for p in TRANSACTION_MIX.values())

