"""The HBase side of the model: RegionServer configuration and placement.

MeT tunes three RegionServer settings per node (block cache share, memstore
share and block size; Table 1 of the paper) and is compared against HBase's
default balancer, which spreads Regions evenly by count at random.  The
cluster itself -- Regions, RegionServers and their hardware -- is modelled
by the analytical :mod:`repro.simulation` package (see the stack table in
README.md).
"""

from repro.hbase.balancer import RandomBalancer
from repro.hbase.config import (
    DEFAULT_HOMOGENEOUS,
    TPCC_HOMOGENEOUS,
    ConfigError,
    RegionServerConfig,
)

__all__ = [
    "RandomBalancer",
    "RegionServerConfig",
    "ConfigError",
    "DEFAULT_HOMOGENEOUS",
    "TPCC_HOMOGENEOUS",
]
