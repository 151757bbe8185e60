"""Node configuration profiles (paper Table 1).

Each access-pattern group maps to a RegionServer configuration::

    Node profile   Cache size   Memstore size   Block size
    Read           55%          10%             32 KB
    Write          10%          55%             64 KB
    Read/Write     45%          20%             32 KB
    Scan           55%          10%             128 KB
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hbase.config import KB, RegionServerConfig


@dataclass(frozen=True)
class NodeProfile:
    """A named heterogeneous node configuration."""

    name: str
    config: RegionServerConfig
    description: str = ""

    def __post_init__(self) -> None:
        self.config.validate()


READ_PROFILE = NodeProfile(
    name="read",
    config=RegionServerConfig(
        block_cache_fraction=0.55,
        memstore_fraction=0.10,
        block_size_bytes=32 * KB,
    ),
    description="Read-intensive partitions: large cache, small blocks.",
)

WRITE_PROFILE = NodeProfile(
    name="write",
    config=RegionServerConfig(
        block_cache_fraction=0.10,
        memstore_fraction=0.55,
        block_size_bytes=64 * KB,
    ),
    description="Write-intensive partitions: large memstore.",
)

READ_WRITE_PROFILE = NodeProfile(
    name="read_write",
    config=RegionServerConfig(
        block_cache_fraction=0.45,
        memstore_fraction=0.20,
        block_size_bytes=32 * KB,
    ),
    description="Mixed partitions: balanced cache and memstore.",
)

SCAN_PROFILE = NodeProfile(
    name="scan",
    config=RegionServerConfig(
        block_cache_fraction=0.55,
        memstore_fraction=0.10,
        block_size_bytes=128 * KB,
    ),
    description="Scan-intensive partitions: large blocks for sequential reads.",
)

#: Table 1, keyed by the access-pattern group name.
NODE_PROFILES: dict[str, NodeProfile] = {
    profile.name: profile
    for profile in (READ_PROFILE, WRITE_PROFILE, READ_WRITE_PROFILE, SCAN_PROFILE)
}


def profile_for(group: str) -> NodeProfile:
    """Look up the profile for an access-pattern group name."""
    try:
        return NODE_PROFILES[group]
    except KeyError:
        raise KeyError(
            f"unknown node profile {group!r}; expected one of {sorted(NODE_PROFILES)}"
        ) from None


def config_for(profile_name: str) -> RegionServerConfig:
    """RegionServer configuration for a profile name.

    Names outside Table 1 (``"default"``, an unprovisioned placeholder) get
    the read/write profile, the paper's balanced configuration.
    """
    return NODE_PROFILES.get(profile_name, READ_WRITE_PROFILE).config
