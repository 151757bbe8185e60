"""TPC-C schema: the 9 tables and their HBase key encodings.

TPC-C models a wholesale supplier with geographically distributed sales
districts and associated warehouses.  Tables are horizontally partitioned by
warehouse (the usual setting for running TPC-C on distributed databases,
following Stonebraker et al.), so a partition holds every table's rows for a
contiguous range of warehouse ids.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The nine TPC-C tables.
TPCC_TABLES = (
    "warehouse",
    "district",
    "customer",
    "history",
    "neworder",
    "orders",
    "orderline",
    "item",
    "stock",
)

#: TPC-C cardinalities per warehouse (scaled-down values are configurable).
DISTRICTS_PER_WAREHOUSE = 10
CUSTOMERS_PER_DISTRICT = 3000
ITEMS = 100_000
STOCK_PER_WAREHOUSE = 100_000

#: Physical-to-logical storage blow-up: HBase stores the full row key, column
#: name and timestamp with every cell, plus store-file and WAL overhead, so a
#: TPC-C database occupies several times its logical size (the paper reports
#: ~15 GB for 30 warehouses).
STORAGE_OVERHEAD = 6.5

#: Approximate logical bytes per row.
ROW_BYTES = {
    "warehouse": 100,
    "district": 110,
    "customer": 680,
    "history": 60,
    "neworder": 10,
    "orders": 30,
    "orderline": 60,
    "item": 90,
    "stock": 320,
}


@dataclass(frozen=True)
class TPCCConfig:
    """Scale parameters of a TPC-C database.

    The defaults mirror the paper: 30 warehouses (~15 GB), 5 warehouses per
    RegionServer and 50 clients per RegionServer (300 clients total).
    ``scale_factor`` shrinks per-warehouse cardinalities for the functional
    driver used in tests and examples.
    """

    warehouses: int = 30
    warehouses_per_node: int = 5
    clients: int = 300
    scale_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.warehouses <= 0:
            raise ValueError("warehouses must be positive")
        if self.warehouses_per_node <= 0:
            raise ValueError("warehouses per node must be positive")
        if self.clients <= 0:
            raise ValueError("clients must be positive")
        if not 0 < self.scale_factor <= 1.0:
            raise ValueError("scale factor must be in (0, 1]")

    @property
    def partitions(self) -> int:
        """Number of warehouse-aligned data partitions."""
        return -(-self.warehouses // self.warehouses_per_node)

    @property
    def districts_per_warehouse(self) -> int:
        """Scaled districts per warehouse (at least 1)."""
        return max(1, int(DISTRICTS_PER_WAREHOUSE * self.scale_factor))

    @property
    def customers_per_district(self) -> int:
        """Scaled customers per district (at least 1)."""
        return max(1, int(CUSTOMERS_PER_DISTRICT * self.scale_factor))

    @property
    def items(self) -> int:
        """Scaled item count (at least 1)."""
        return max(1, int(ITEMS * self.scale_factor))

    @property
    def stock_per_warehouse(self) -> int:
        """Scaled stock rows per warehouse (at least 1)."""
        return max(1, int(STOCK_PER_WAREHOUSE * self.scale_factor))

    def warehouse_bytes(self) -> float:
        """Approximate on-disk footprint of one warehouse."""
        per_warehouse = (
            ROW_BYTES["warehouse"]
            + self.districts_per_warehouse * ROW_BYTES["district"]
            + self.districts_per_warehouse
            * self.customers_per_district
            * (ROW_BYTES["customer"] + ROW_BYTES["history"])
            + self.districts_per_warehouse
            * self.customers_per_district
            * (ROW_BYTES["orders"] + ROW_BYTES["neworder"] + 10 * ROW_BYTES["orderline"])
            + self.stock_per_warehouse * ROW_BYTES["stock"]
        )
        return float(per_warehouse) * STORAGE_OVERHEAD

    def database_bytes(self) -> float:
        """Approximate total database size (items table counted once)."""
        return (
            self.warehouses * self.warehouse_bytes()
            + self.items * ROW_BYTES["item"] * STORAGE_OVERHEAD
        )

    def partition_ids(self, prefix: str = "tpcc") -> list[str]:
        """Ids of the warehouse-aligned partitions.

        ``prefix`` namespaces the ids per tenant so several TPC-C tenants
        (or a TPC-C tenant next to YCSB ones) can coexist in one simulator.
        """
        return [f"{prefix}:wpart-{index}" for index in range(self.partitions)]


# --------------------------------------------------------------------------- #
# key encodings (functional driver)
# --------------------------------------------------------------------------- #
def warehouse_key(w_id: int) -> str:
    """Row key of a WAREHOUSE row."""
    return f"W#{w_id:05d}"


def district_key(w_id: int, d_id: int) -> str:
    """Row key of a DISTRICT row."""
    return f"D#{w_id:05d}#{d_id:02d}"


def customer_key(w_id: int, d_id: int, c_id: int) -> str:
    """Row key of a CUSTOMER row."""
    return f"C#{w_id:05d}#{d_id:02d}#{c_id:05d}"


def item_key(i_id: int) -> str:
    """Row key of an ITEM row."""
    return f"I#{i_id:06d}"


def stock_key(w_id: int, i_id: int) -> str:
    """Row key of a STOCK row."""
    return f"S#{w_id:05d}#{i_id:06d}"


def order_key(w_id: int, d_id: int, o_id: int) -> str:
    """Row key of an ORDERS row."""
    return f"O#{w_id:05d}#{d_id:02d}#{o_id:07d}"


def new_order_key(w_id: int, d_id: int, o_id: int) -> str:
    """Row key of a NEW-ORDER row."""
    return f"NO#{w_id:05d}#{d_id:02d}#{o_id:07d}"


def order_line_key(w_id: int, d_id: int, o_id: int, number: int) -> str:
    """Row key of an ORDER-LINE row."""
    return f"OL#{w_id:05d}#{d_id:02d}#{o_id:07d}#{number:02d}"


def history_key(w_id: int, d_id: int, c_id: int, sequence: int) -> str:
    """Row key of a HISTORY row."""
    return f"H#{w_id:05d}#{d_id:02d}#{c_id:05d}#{sequence:07d}"
