"""Tests for the YCSB and TPC-C workload models and the sampled key choosers."""

import pytest

from key_choosers import (
    HotspotChooser,
    LatestChooser,
    UniformChooser,
    ZipfianChooser,
    partition_request_shares,
)
from repro.simulation.cluster import ClusterSimulator
from repro.sla import to_native_rate
from repro.workloads.tenant import TenantWorkload, materialise_tenants
from repro.workloads.tpcc.driver import ops_rate_from_tpmc, tpmc_from_ops_rate
from repro.workloads.tpcc.schema import TPCC_TABLES, TPCCConfig
from repro.workloads.tpcc.tenant import TPCCTenant
from repro.workloads.tpcc.transactions import (
    TRANSACTION_MIX,
    aggregate_operation_mix,
    operations_per_transaction,
)
from repro.workloads.ycsb.workloads import (
    CORE_WORKLOADS,
    YCSBWorkload,
    hotspot_partition_weights,
)


class TestDistributions:
    @pytest.mark.parametrize(
        "chooser_cls", [UniformChooser, HotspotChooser, ZipfianChooser, LatestChooser]
    )
    def test_indices_within_bounds(self, chooser_cls):
        chooser = chooser_cls(1000, seed=1)
        for _ in range(500):
            assert 0 <= chooser.next_index() < 1000

    def test_hotspot_concentrates_requests(self):
        chooser = HotspotChooser(1000, hot_set_fraction=0.4, hot_operation_fraction=0.5, seed=1)
        hot = sum(1 for _ in range(4000) if chooser.next_index() < 400)
        assert 0.45 <= hot / 4000 <= 0.60  # ~50% of requests hit the hot set

    def test_zipfian_skews_to_low_indices(self):
        chooser = ZipfianChooser(1000, seed=1)
        low = sum(1 for _ in range(2000) if chooser.next_index() < 100)
        assert low / 2000 > 0.5

    def test_latest_skews_to_recent(self):
        chooser = LatestChooser(1000, seed=1)
        recent = sum(1 for _ in range(2000) if chooser.next_index() >= 900)
        assert recent / 2000 > 0.5

    def test_extend_grows_keyspace(self):
        chooser = UniformChooser(10, seed=1)
        chooser.extend(100)
        assert chooser.record_count == 100

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            UniformChooser(0)
        with pytest.raises(ValueError):
            HotspotChooser(10, hot_set_fraction=0.0)
        with pytest.raises(ValueError):
            ZipfianChooser(10, theta=1.5)

    def test_partition_request_shares_sum_to_one(self):
        shares = partition_request_shares(
            lambda n, seed: HotspotChooser(n, seed=seed), 1000, 4
        )
        assert sum(shares) == pytest.approx(1.0)
        assert shares[0] > shares[-1]


class TestYCSBWorkloads:
    def test_six_paper_workloads_defined(self):
        assert set(CORE_WORKLOADS) == set("ABCDEF")

    def test_paper_configuration_of_b_and_d(self):
        assert CORE_WORKLOADS["B"].update_proportion == 1.0
        assert CORE_WORKLOADS["D"].insert_proportion == 0.95
        assert CORE_WORKLOADS["D"].record_count == 100_000
        assert CORE_WORKLOADS["D"].threads == 5
        assert CORE_WORKLOADS["D"].target_ops_per_second == 1500.0
        assert CORE_WORKLOADS["D"].partitions == 1

    def test_op_mix_sums_to_one(self):
        for workload in CORE_WORKLOADS.values():
            assert sum(workload.op_mix.values()) == pytest.approx(1.0)

    def test_invalid_mix_rejected(self):
        with pytest.raises(ValueError):
            YCSBWorkload(name="bad", read_proportion=0.5)

    def test_hotspot_partition_weights_match_paper(self):
        weights = hotspot_partition_weights(4)
        assert weights == [0.34, 0.26, 0.20, 0.20]
        assert hotspot_partition_weights(1) == [1.0]
        assert sum(hotspot_partition_weights(6)) == pytest.approx(1.0)

    def test_region_specs_sizes_and_ids(self):
        specs = CORE_WORKLOADS["A"].region_specs()
        assert len(specs) == 4
        assert specs[0].region_id == "A:part-0"
        assert sum(s.size_bytes for s in specs) == pytest.approx(
            CORE_WORKLOADS["A"].initial_size_bytes
        )

    def test_expected_requests_breakdown(self):
        workload = CORE_WORKLOADS["A"]
        first = workload.partition_workloads(window_seconds=10.0)[0]
        total = workload.nominal_ops_per_second * 10.0
        assert first.reads == pytest.approx(total * 0.34 * 0.5)
        assert first.writes == pytest.approx(total * 0.34 * 0.5)
        assert first.scans == 0.0

    def test_nominal_volume_ranks_read_above_scan(self):
        assert (
            CORE_WORKLOADS["C"].nominal_ops_per_second
            > CORE_WORKLOADS["E"].nominal_ops_per_second
        )
        assert CORE_WORKLOADS["D"].nominal_ops_per_second <= 1500.0


class TestYCSBScenario:
    def test_materialise_paper_tenants(self):
        simulator = ClusterSimulator()
        simulator.add_node()
        expected = materialise_tenants(simulator, CORE_WORKLOADS.values())
        # 4 partitions per workload except D with a single one.
        assert len(simulator.regions) == 21
        assert [p.partition_id for p in expected] == list(simulator.regions)
        assert sorted(simulator.bindings) == [f"workload-{name}" for name in "ABCDEF"]
        assert all(region.node is None for region in simulator.regions.values())

    def test_initial_data_volume_matches_paper(self):
        simulator = ClusterSimulator()
        simulator.add_node()
        materialise_tenants(simulator, CORE_WORKLOADS.values())
        total_gb = sum(r.size_bytes for r in simulator.regions.values()) / 1e9
        # Paper: the cluster starts with around 7 GB of data.
        assert 4.0 <= total_gb <= 8.0


class TestTPCCSchema:
    def test_nine_tables(self):
        assert len(TPCC_TABLES) == 9

    def test_paper_scale_configuration(self):
        config = TPCCConfig()
        assert config.warehouses == 30
        assert config.partitions == 6
        assert config.clients == 300
        # Paper: 30 warehouses give a database of roughly 15 GB.
        assert 8e9 <= config.database_bytes() <= 25e9

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            TPCCConfig(warehouses=0)
        with pytest.raises(ValueError):
            TPCCConfig(scale_factor=0.0)


class TestTPCCTransactions:
    def test_mix_weights_sum_to_one(self):
        assert sum(p.weight for p in TRANSACTION_MIX.values()) == pytest.approx(1.0)

    def test_read_only_fraction_is_about_8_percent(self):
        read_only = sum(p.weight for p in TRANSACTION_MIX.values() if p.read_only)
        assert read_only == pytest.approx(0.08)

    def test_aggregate_mix_is_write_heavy(self):
        mix = aggregate_operation_mix()
        assert sum(mix.values()) == pytest.approx(1.0)
        assert mix["update"] > 0.6  # classified as a write workload by MeT

    def test_operations_per_transaction_positive(self):
        assert operations_per_transaction() > 10

    def test_tpmc_conversion(self):
        ops_rate = operations_per_transaction() * 100.0  # 100 tx/s
        assert tpmc_from_ops_rate(ops_rate) == pytest.approx(100 * 0.45 * 60)

    def test_aggregate_mix_weights_footprints_by_transaction_frequency(self):
        """The aggregate mix is the weight-scaled footprint ratio, normalised."""
        mix = aggregate_operation_mix()
        reads = sum(p.weight * p.reads for p in TRANSACTION_MIX.values())
        total = sum(p.weight * p.operations for p in TRANSACTION_MIX.values())
        assert mix["read"] == pytest.approx(reads / total)
        assert set(mix) == {"read", "update", "scan"}
        assert all(share > 0 for share in mix.values())

    def test_tpmc_round_trip(self):
        """ops -> tpmC -> ops is the identity."""
        for ops_rate in (1.0, 537.5, 2400.0, 100_000.0):
            assert ops_rate_from_tpmc(tpmc_from_ops_rate(ops_rate)) == pytest.approx(ops_rate)
        tpmc = 1234.5
        assert tpmc_from_ops_rate(ops_rate_from_tpmc(tpmc)) == pytest.approx(tpmc)


class TestTPCCSimulatorBinding:
    def test_binding_addresses_all_partitions(self):
        config = TPCCConfig()
        binding = TPCCTenant(config=config).binding()
        assert binding.threads == 300
        assert len(binding.region_weights) == config.partitions
        assert sum(binding.region_weights.values()) == pytest.approx(1.0)

    def test_materialise_tpcc_tenant(self):
        simulator = ClusterSimulator()
        node = simulator.add_node()
        config = TPCCConfig()
        materialise_tenants(simulator, [TPCCTenant(config=config)])
        assert len(simulator.regions) == config.partitions
        assert "tpcc" in simulator.bindings
        for region in simulator.regions.values():
            assert region.workload == "tpcc"
            assert region.hot_request_fraction == pytest.approx(0.95)
            region.node = node
            region.block_homes = {node}
        simulator.run(30.0)
        assert simulator.binding_throughput("tpcc") > 0

    def test_named_binding_namespaces_partitions_and_caps(self):
        config = TPCCConfig(warehouses=4, warehouses_per_node=2, clients=10)
        binding = TPCCTenant(name="orders", config=config, target_ops_per_second=500.0).binding()
        assert binding.name == "orders"
        assert all(r.startswith("orders:wpart-") for r in binding.region_weights)
        assert sum(binding.region_weights.values()) == pytest.approx(1.0)
        assert binding.target_ops_per_second == 500.0


class TestTenantProtocol:
    @pytest.mark.parametrize(
        "tenant",
        [
            CORE_WORKLOADS["A"],
            TPCCTenant(config=TPCCConfig(warehouses=8, warehouses_per_node=2, clients=20)),
        ],
        ids=["ycsb", "tpcc"],
    )
    def test_tenant_contract(self, tenant):
        assert isinstance(tenant, TenantWorkload)
        specs = tenant.region_specs()
        binding = tenant.binding()
        assert binding.name == tenant.binding_name
        assert list(binding.region_weights) == [s.region_id for s in specs]
        assert sum(binding.region_weights.values()) == pytest.approx(1.0)
        assert binding.op_mix == tenant.op_mix
        # with_target round-trips; an unchanged target returns the tenant itself.
        capped = tenant.with_target(1234.0)
        assert capped.target_ops_per_second == 1234.0
        assert capped.binding().target_ops_per_second == 1234.0
        assert capped.with_target(tenant.target_ops_per_second) == tenant
        assert tenant.with_target(tenant.target_ops_per_second) is tenant
        # Expected per-partition requests add up to nominal rate x window.
        expected = tenant.partition_workloads(window_seconds=60.0)
        assert [p.partition_id for p in expected] == [s.region_id for s in specs]
        total = sum(p.total_requests for p in expected)
        assert total == pytest.approx(tenant.nominal_ops_per_second * 60.0)

    def test_ycsb_workload_is_a_tenant(self):
        workload = CORE_WORKLOADS["A"]
        assert workload.name == "A"
        assert workload.binding_name == "workload-A"
        assert workload.unit_label == "ops/s"
        assert workload.supports_mix_shift
        assert [s.region_id for s in workload.region_specs()] == workload.partition_ids()

    def test_tpcc_tenant_implements_protocol(self):
        config = TPCCConfig(warehouses=8, warehouses_per_node=2, clients=20, scale_factor=0.05)
        tenant = TPCCTenant(name="tpcc", config=config)
        assert isinstance(tenant, TenantWorkload)
        assert tenant.binding_name == "tpcc"
        assert tenant.unit_label == "tpmC"
        assert not tenant.supports_mix_shift
        specs = tenant.region_specs()
        assert len(specs) == config.partitions
        assert sum(s.weight for s in specs) == pytest.approx(1.0)
        assert all(s.region_id.startswith("tpcc:wpart-") for s in specs)
        # Warehouse-aligned partitions split the database evenly.
        assert sum(s.size_bytes for s in specs) == pytest.approx(config.database_bytes())

    def test_tpcc_tenant_rates_in_both_units(self):
        tenant = TPCCTenant(target_ops_per_second=2024.0)
        assert tenant.nominal_ops_per_second == 2024.0  # capped by target
        assert to_native_rate(tenant.unit_label, 2024.0) == pytest.approx(tpmc_from_ops_rate(2024.0))
        nominal_tpmc = to_native_rate(tenant.unit_label, tenant.nominal_ops_per_second)
        assert nominal_tpmc == pytest.approx(tpmc_from_ops_rate(2024.0))
        uncapped = tenant.with_target(None)
        assert uncapped.nominal_ops_per_second > 2024.0

    def test_tpcc_partition_workloads_are_write_heavy(self):
        tenant = TPCCTenant(target_ops_per_second=2000.0)
        expected = tenant.partition_workloads(window_seconds=60.0)
        assert len(expected) == tenant.config.partitions
        total = sum(p.total_requests for p in expected)
        assert total == pytest.approx(2000.0 * 60.0)
        assert all(p.writes > p.reads for p in expected)

    def test_two_tpcc_tenants_coexist(self):
        config = TPCCConfig(warehouses=4, warehouses_per_node=2, clients=5, scale_factor=0.02)
        first = TPCCTenant(name="tpcc-eu", config=config)
        second = TPCCTenant(name="tpcc-us", config=config)
        ids = {s.region_id for s in first.region_specs()} | {
            s.region_id for s in second.region_specs()
        }
        assert len(ids) == 2 * config.partitions  # no partition-id collisions
