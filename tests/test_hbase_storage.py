"""Tests for RegionServer configuration validation (paper Section 2.1).

The storage settings MeT tunes (block cache share, memstore share, block
size) are the only settable fields; the handler count is not one of them.
"""

import pytest

from repro.hbase.config import ConfigError, DEFAULT_HOMOGENEOUS, RegionServerConfig


class TestRegionServerConfig:
    def test_default_is_valid(self):
        RegionServerConfig().validate()
        DEFAULT_HOMOGENEOUS.validate()

    def test_rejects_heap_share_over_65_percent(self):
        with pytest.raises(ConfigError):
            RegionServerConfig(block_cache_fraction=0.5, memstore_fraction=0.3).validate()

    def test_rejects_bad_fractions(self):
        with pytest.raises(ConfigError):
            RegionServerConfig(block_cache_fraction=0.0).validate()
        with pytest.raises(ConfigError):
            RegionServerConfig(memstore_fraction=1.2).validate()

    def test_rejects_bad_block_size_and_handlers(self):
        with pytest.raises(ConfigError):
            RegionServerConfig(block_size_bytes=0).validate()
        with pytest.raises(TypeError):
            RegionServerConfig().with_overrides(handler_count=10)

    def test_absolute_sizes(self):
        config = RegionServerConfig(block_cache_fraction=0.5, memstore_fraction=0.1)
        assert config.block_cache_bytes(1000) == 500
        assert config.memstore_bytes(1000) == 100

    def test_with_overrides_validates(self):
        config = RegionServerConfig()
        bigger = config.with_overrides(block_cache_fraction=0.25)
        assert bigger.block_cache_fraction == 0.25
        with pytest.raises(ConfigError):
            config.with_overrides(block_cache_fraction=0.65)
