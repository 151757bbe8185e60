"""Perf-oriented regression tests for the YCSB key distributions.

Covers the two distribution satellites of the kernel-perf PR: the
incremental ``ZipfianChooser.extend`` (no O(n) recompute per key-space
growth) and the closed-form ``partition_request_shares`` for the uniform
and hotspot distributions.
"""

import pytest

from key_choosers import (
    HotspotChooser,
    LatestChooser,
    UniformChooser,
    ZipfianChooser,
    partition_request_shares,
)


class TestZipfianIncrementalExtend:
    def test_extend_matches_fresh_recompute(self):
        grown = ZipfianChooser(1000, seed=3)
        grown.extend(1500)
        fresh = ZipfianChooser(1500, seed=3)
        assert grown._zetan == pytest.approx(fresh._zetan, rel=1e-12)
        assert grown._eta == pytest.approx(fresh._eta, rel=1e-12)

    def test_repeated_single_extends_match_one_big_extend(self):
        stepwise = ZipfianChooser(100, seed=1)
        for count in range(101, 201):
            stepwise.extend(count)
        bulk = ZipfianChooser(100, seed=1)
        bulk.extend(200)
        assert stepwise._zetan == bulk._zetan
        assert stepwise._eta == bulk._eta

    def test_extend_cost_is_incremental(self):
        chooser = ZipfianChooser(1000, seed=1)
        baseline = chooser._zeta_terms_computed
        assert baseline == 1000
        for count in range(1001, 1501):
            chooser.extend(count)
        # 500 single-key extends must cost ~500 terms, not ~500 * n.
        assert chooser._zeta_terms_computed - baseline == 500

    def test_noop_extend_costs_nothing(self):
        chooser = ZipfianChooser(1000, seed=1)
        baseline = chooser._zeta_terms_computed
        chooser.extend(500)
        chooser.extend(1000)
        assert chooser._zeta_terms_computed == baseline

    def test_latest_chooser_heavy_insert_not_quadratic(self):
        chooser = LatestChooser(1000, seed=5)
        inserts = 2000
        for count in range(1001, 1001 + inserts):
            chooser.extend(count)
            chooser.next_index()
        # Initial build costs n terms; each insert adds exactly one more.
        assert chooser._zipf._zeta_terms_computed == 1000 + inserts
        assert chooser.record_count == 1000 + inserts
        assert all(0 <= chooser.next_index() < chooser.record_count for _ in range(200))


class TestAnalyticPartitionShares:
    def test_uniform_shares_are_exact(self):
        shares = partition_request_shares(
            lambda n, seed: UniformChooser(n, seed=seed), 1000, 4
        )
        assert shares == [0.25, 0.25, 0.25, 0.25]

    def test_uniform_shares_with_uneven_tail(self):
        shares = partition_request_shares(
            lambda n, seed: UniformChooser(n, seed=seed), 10, 3
        )
        # boundary = ceil(10/3) = 4 -> partitions cover 4/4/2 keys.
        assert shares == [0.4, 0.4, 0.2]
        assert sum(shares) == pytest.approx(1.0)

    def test_hotspot_shares_closed_form(self):
        shares = partition_request_shares(
            lambda n, seed: HotspotChooser(n, seed=seed), 1000, 4
        )
        # hot set = first 400 keys, 50% of requests; partition 0 is fully
        # hot, partition 1 is 150 hot + 100 cold, partitions 2-3 all cold.
        assert shares[0] == pytest.approx(0.5 * 250 / 400)
        assert shares[1] == pytest.approx(0.5 * 150 / 400 + 0.5 * 100 / 600)
        assert shares[2] == pytest.approx(0.5 * 250 / 600)
        assert shares[3] == pytest.approx(0.5 * 250 / 600)
        assert sum(shares) == pytest.approx(1.0)

    def test_hotspot_shares_match_empirical_sampling(self):
        analytic = partition_request_shares(
            lambda n, seed: HotspotChooser(n, seed=seed), 1000, 4
        )
        chooser = HotspotChooser(1000, seed=11)
        counts = [0] * 4
        samples = 40000
        for _ in range(samples):
            counts[min(chooser.next_index() // 250, 3)] += 1
        for share, count in zip(analytic, counts):
            assert share == pytest.approx(count / samples, abs=0.02)

    def test_hot_set_covering_everything_degenerates_to_uniform(self):
        shares = partition_request_shares(
            lambda n, seed: HotspotChooser(n, hot_set_fraction=1.0, seed=seed),
            1000,
            4,
        )
        assert shares == pytest.approx([0.25, 0.25, 0.25, 0.25])

    def test_zipfian_still_sampled_and_skewed(self):
        shares = partition_request_shares(
            lambda n, seed: ZipfianChooser(n, seed=seed), 1000, 4
        )
        assert shares[0] > shares[1] > 0
        assert sum(shares) == pytest.approx(1.0)

    def test_latest_still_sampled_and_skewed_to_tail(self):
        shares = partition_request_shares(
            lambda n, seed: LatestChooser(n, seed=seed), 1000, 4
        )
        assert shares[-1] > shares[0]
        assert sum(shares) == pytest.approx(1.0)
