"""Exceptions raised by the mini-HBase substrate."""


class HBaseError(RuntimeError):
    """Base class for all HBase substrate errors."""


class NoSuchTableError(HBaseError):
    """The requested table does not exist."""


class NoSuchRegionError(HBaseError):
    """No region covers the requested key, or the region id is unknown."""


class RegionOfflineError(HBaseError):
    """The region is temporarily unavailable (its server is restarting)."""


class NoSuchRegionServerError(HBaseError):
    """The requested RegionServer is not part of the cluster."""
