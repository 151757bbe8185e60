"""A functional mini-HBase.

This package implements the NoSQL substrate the paper builds on, at the
fidelity MeT needs: a multi-dimensional sorted map (HTable) horizontally
partitioned into Regions served by RegionServers, with a put/get/delete/scan
client API, memstores, an LRU block cache, store files kept in the HDFS
substrate (:mod:`repro.hdfs`), automatic region splits, pluggable balancers,
major compactions and per-Region request counters (including the scan counter
the paper had to add to HBase).

It is a real, usable key-value store for in-memory data sets; the large-scale
experiments use the analytical :mod:`repro.simulation` substrate instead (see
the stack table in README.md).
"""

from repro.hbase.client import HBaseClient
from repro.hbase.cluster import MiniHBaseCluster
from repro.hbase.config import (
    DEFAULT_HOMOGENEOUS,
    TPCC_HOMOGENEOUS,
    ConfigError,
    RegionServerConfig,
)
from repro.hbase.errors import NoSuchRegionError, NoSuchTableError, RegionOfflineError
from repro.hbase.master import HMaster
from repro.hbase.region import Region
from repro.hbase.regionserver import RegionServer
from repro.hbase.table import HTableDescriptor

__all__ = [
    "HBaseClient",
    "MiniHBaseCluster",
    "RegionServerConfig",
    "ConfigError",
    "DEFAULT_HOMOGENEOUS",
    "TPCC_HOMOGENEOUS",
    "HMaster",
    "Region",
    "RegionServer",
    "HTableDescriptor",
    "NoSuchTableError",
    "NoSuchRegionError",
    "RegionOfflineError",
]
