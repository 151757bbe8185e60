"""RegionServer configuration parameters.

Section 2.1 of the paper singles out the parameters that most affect HBase
performance and that MeT tunes per node:

* ``block cache size`` -- fraction of the Java heap used to cache blocks read
  from Regions (favours reads).
* ``memstore size`` -- fraction of the heap buffering updates before they are
  flushed to disk (favours writes).
* ``block size`` -- size of the blocks in the block cache; small blocks
  favour random reads, large blocks favour scans.

The paper notes the sum of the block cache and memstore fractions should not
exceed 65% of the heap; :meth:`RegionServerConfig.validate` enforces it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

KB = 1024

#: HBase constraint: block cache + memstore must not exceed this heap share.
MAX_HEAP_SHARE = 0.65


class ConfigError(ValueError):
    """Raised when a RegionServer configuration violates HBase constraints."""


@dataclass(frozen=True)
class RegionServerConfig:
    """Tunable configuration of one RegionServer.

    Attributes:
        block_cache_fraction: share of the heap given to the block cache.
        memstore_fraction: share of the heap given to memstores.
        block_size_bytes: block size used by the block cache.
    """

    block_cache_fraction: float = 0.25
    memstore_fraction: float = 0.40
    block_size_bytes: int = 64 * KB

    def validate(self) -> "RegionServerConfig":
        """Check HBase's configuration constraints and return ``self``."""
        if not 0.0 < self.block_cache_fraction < 1.0:
            raise ConfigError(
                f"block cache fraction must be in (0, 1), got {self.block_cache_fraction!r}"
            )
        if not 0.0 < self.memstore_fraction < 1.0:
            raise ConfigError(
                f"memstore fraction must be in (0, 1), got {self.memstore_fraction!r}"
            )
        total = self.block_cache_fraction + self.memstore_fraction
        if total > MAX_HEAP_SHARE + 1e-9:
            raise ConfigError(
                "block cache + memstore fractions must not exceed "
                f"{MAX_HEAP_SHARE:.0%} of the heap, got {total:.0%}"
            )
        if self.block_size_bytes <= 0:
            raise ConfigError(f"block size must be positive, got {self.block_size_bytes!r}")
        return self

    def block_cache_bytes(self, heap_bytes: int) -> int:
        """Absolute block-cache capacity for a given heap size."""
        return int(self.block_cache_fraction * heap_bytes)

    def memstore_bytes(self, heap_bytes: int) -> int:
        """Absolute memstore capacity for a given heap size."""
        return int(self.memstore_fraction * heap_bytes)

    def with_overrides(self, **overrides: float | int) -> "RegionServerConfig":
        """Return a copy with the given fields replaced (and validated)."""
        return replace(self, **overrides).validate()


#: The Random-Homogeneous configuration used in Section 3.3: 60% of the heap
#: for reads and 40% for writes would violate the 65% rule, so the paper's
#: direct mapping is interpreted as a 60/40 split of the allowed share.
DEFAULT_HOMOGENEOUS = RegionServerConfig(
    block_cache_fraction=0.39,
    memstore_fraction=0.26,
    block_size_bytes=64 * KB,
)

#: The TPC-C Manual-Homogeneous baseline of Section 6.3 (50% cache, 15%
#: memstore, 32 KB blocks).
TPCC_HOMOGENEOUS = RegionServerConfig(
    block_cache_fraction=0.50,
    memstore_fraction=0.15,
    block_size_bytes=32 * KB,
)
