"""Tests for the HBase cluster layer that remains: HBase's default random
balancer, which scenario and strategy placement use."""

import pytest

from repro.hbase.balancer import RandomBalancer


class TestBalancers:
    def test_random_balancer_even_counts(self):
        balancer = RandomBalancer(seed=0)
        regions = [f"r{i}" for i in range(10)]
        servers = ["s1", "s2", "s3"]
        assignment = balancer.assign(regions, servers)
        counts = {s: list(assignment.values()).count(s) for s in servers}
        assert set(assignment) == set(regions)
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_random_balancer_requires_servers(self):
        with pytest.raises(ValueError):
            RandomBalancer(seed=0).assign(["r1"], [])

    def test_balancers_deterministic_with_seed(self):
        regions = [f"r{i}" for i in range(8)]
        servers = ["s1", "s2", "s3"]
        a = RandomBalancer(seed=42).assign(regions, servers)
        b = RandomBalancer(seed=42).assign(regions, servers)
        assert a == b
