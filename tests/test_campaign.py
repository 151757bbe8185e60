"""Campaign subsystem: grid expansion, store hygiene, determinism, resume.

The load-bearing guarantees:

* a grid expands to cells in a canonical order with PYTHONHASHSEED-immune
  per-cell seeds (shared across the controller axis, so a matchup's two
  controllers face the same reseeded scenario);
* the results store is crash-tolerant (a torn final line costs one cell,
  corruption in the middle refuses to aggregate);
* the store's bytes are a pure function of grid + master seed: identical
  across repeat runs, across pool sizes, and across resume passes.
"""

import json

import pytest

from repro.campaign import (
    BASELINE_SCALE,
    CampaignGrid,
    ResultsStore,
    ScaleSpec,
    aggregate_records,
    apply_scale,
    derive_seed,
    render_campaign_table,
    render_seed_quantile_table,
    run_campaign,
)
from repro.campaign.store import StoreCorruption
from repro.scenarios import CANNED_SCENARIOS, ScenarioSpec
from repro.scenarios.catalog import SMALL_A, SMALL_C


@pytest.fixture(autouse=True)
def _guarded(determinism_guard):
    """The whole campaign suite runs under the runtime determinism
    sanitizer: store bytes must be a pure function of grid + master seed,
    so any wall-clock or global-RNG dependence in the path raises instead
    of flaking.  (Pool workers fork with the guard installed; the profile
    sidecar times itself through repro.util.wallclock, which stays open.)
    """
    yield


def tiny_spec(name: str = "tiny", **overrides) -> ScenarioSpec:
    defaults = dict(
        name=name,
        tenants=(SMALL_A.with_target(2000.0),),
        duration_minutes=1.0,
        initial_nodes=2,
        max_nodes=3,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def tiny_grid(seeds: int = 1, master_seed: int = 7) -> CampaignGrid:
    return CampaignGrid(
        scenarios=(tiny_spec("alpha"), tiny_spec("beta", seed=3)),
        controllers=("met", "tiramola"),
        seeds=seeds,
        master_seed=master_seed,
    )


class TestGrid:
    def test_cells_enumerate_in_canonical_order(self):
        grid = tiny_grid(seeds=2)
        ids = [cell.cell_id for cell in grid.cells()]
        assert ids == [
            "alpha|met|1x|s0",
            "alpha|met|1x|s1",
            "alpha|tiramola|1x|s0",
            "alpha|tiramola|1x|s1",
            "beta|met|1x|s0",
            "beta|met|1x|s1",
            "beta|tiramola|1x|s0",
            "beta|tiramola|1x|s1",
        ]
        assert grid.size == len(ids)

    def test_seed_is_shared_across_controllers(self):
        cells = {cell.cell_id: cell for cell in tiny_grid().cells()}
        assert (
            cells["alpha|met|1x|s0"].seed == cells["alpha|tiramola|1x|s0"].seed
        ), "a matchup's controllers must face the same reseeded scenario"
        assert cells["alpha|met|1x|s0"].seed != cells["beta|met|1x|s0"].seed

    def test_derive_seed_is_stable_and_hash_based(self):
        # A fixed value: derive_seed must never depend on PYTHONHASHSEED or
        # the process; a changed constant here means every committed store
        # and golden campaign number silently stops being reproducible.
        assert derive_seed(0, "alpha", "1x", "s0") == derive_seed(0, "alpha", "1x", "s0")
        assert derive_seed(0, "alpha", "1x", "s0") != derive_seed(1, "alpha", "1x", "s0")
        assert derive_seed(0, "a", "b") >= 0

    def test_adding_a_scenario_keeps_existing_seeds(self):
        before = {c.cell_id: c.seed for c in tiny_grid().cells()}
        extended = CampaignGrid(
            scenarios=(tiny_spec("alpha"), tiny_spec("beta", seed=3), tiny_spec("gamma")),
            controllers=("met", "tiramola"),
            seeds=1,
            master_seed=7,
        )
        after = {c.cell_id: c.seed for c in extended.cells()}
        for cell_id, seed in before.items():
            assert after[cell_id] == seed

    def test_spec_for_reseeds(self):
        grid = tiny_grid(seeds=2)
        cells = grid.cells()
        specs = [grid.spec_for(cell) for cell in cells[:2]]
        assert specs[0].seed == cells[0].seed
        assert specs[0].seed != specs[1].seed

    def test_rejects_degenerate_grids(self):
        with pytest.raises(ValueError):
            CampaignGrid(scenarios=())
        with pytest.raises(ValueError):
            CampaignGrid(scenarios=(tiny_spec(), tiny_spec()))
        with pytest.raises(ValueError):
            CampaignGrid(scenarios=(tiny_spec(),), seeds=0)
        with pytest.raises(ValueError):
            CampaignGrid(
                scenarios=(tiny_spec(),),
                scales=(BASELINE_SCALE, ScaleSpec(name="1x", load=2.0)),
            )


class TestScales:
    def test_baseline_is_identity(self):
        spec = CANNED_SCENARIOS["diurnal"]
        assert apply_scale(spec, BASELINE_SCALE) is spec

    def test_load_multiplies_capped_targets(self):
        spec = tiny_spec()
        scaled = apply_scale(spec, ScaleSpec(name="2x", load=2.0))
        assert scaled.tenants[0].target_ops_per_second == pytest.approx(4000.0)

    def test_uncapped_tenants_stay_uncapped(self):
        spec = tiny_spec(tenants=(SMALL_A,))
        scaled = apply_scale(spec, ScaleSpec(name="2x", load=2.0))
        assert scaled.tenants[0].target_ops_per_second is None

    def test_load_scales_a_workloads_own_cap_into_its_binding(self):
        """``load`` multiplies the cap a workload carries (YCSB-D's own
        1,500 ops/s), clones included, and leaves an uncapped tenant uncapped."""
        from repro.scenarios import build_scenario
        from repro.workloads.ycsb.workloads import CORE_WORKLOADS

        spec = tiny_spec(tenants=(CORE_WORKLOADS["D"], SMALL_A))
        scaled = apply_scale(spec, ScaleSpec(name="2x", load=2.0, tenant_copies=2))
        caps = {tenant.name: tenant.target_ops_per_second for tenant in scaled.tenants}
        assert caps == {"D": 3000.0, "D~1": 3000.0, "A": None, "A~1": None}
        simulator, _, _ = build_scenario(scaled)
        assert simulator.bindings["workload-D"].target_ops_per_second == 3000.0
        assert simulator.bindings["workload-D~1"].target_ops_per_second == 3000.0
        assert simulator.bindings["workload-A"].target_ops_per_second is None

    def test_tenant_copies_clone_with_unique_names(self):
        spec = tiny_spec(
            tenants=(SMALL_A.with_target(1000.0), SMALL_C.with_target(500.0))
        )
        scaled = apply_scale(spec, ScaleSpec(name="x3", tenant_copies=3))
        names = [tenant.name for tenant in scaled.tenants]
        assert len(names) == 6
        assert len(set(names)) == 6, f"clones must not collide: {names}"
        # Copy 0 keeps the original name so scenario events still resolve.
        originals = {tenant.name for tenant in spec.tenants}
        assert originals <= set(names)
        binding_names = [tenant.binding_name for tenant in scaled.tenants]
        assert len(set(binding_names)) == 6

    def test_tpcc_tenants_clone_too(self):
        spec = CANNED_SCENARIOS["tpcc_steady"]
        scaled = apply_scale(spec, ScaleSpec(name="x2", tenant_copies=2))
        names = [tenant.name for tenant in scaled.tenants]
        assert len(set(names)) == len(names) == 2 * len(spec.tenants)

    def test_node_overrides(self):
        scaled = apply_scale(
            tiny_spec(), ScaleSpec(name="big", initial_nodes=4, max_nodes=9)
        )
        assert (scaled.initial_nodes, scaled.max_nodes) == (4, 9)

    def test_scaled_scenario_runs(self):
        """A scaled spec is a real, runnable scenario -- not just data."""
        from repro.scenarios import run_scenario

        scaled = apply_scale(
            tiny_spec(), ScaleSpec(name="2x*2", load=2.0, tenant_copies=2)
        )
        result = run_scenario(scaled, controller="met", keep_simulator=False)
        assert result.run.mean_throughput > 0


class TestStore:
    def test_roundtrip_and_completed_ids(self, tmp_path):
        store = ResultsStore(tmp_path / "r.jsonl")
        assert store.load() == []
        store.append({"cell": "a", "cost": 1.0})
        store.append({"cell": "b", "cost": 2.0})
        assert [r["cell"] for r in store.load()] == ["a", "b"]
        assert store.completed_ids() == {"a", "b"}
        assert len(store) == 2

    def test_truncated_final_line_is_tolerated(self, tmp_path):
        store = ResultsStore(tmp_path / "r.jsonl")
        store.append({"cell": "a"})
        with store.path.open("a") as handle:
            handle.write('{"cell": "b", "cost": 1.')  # killed mid-write
        assert store.completed_ids() == {"a"}, "torn cell must simply re-run"

    def test_append_heals_a_torn_tail(self, tmp_path):
        store = ResultsStore(tmp_path / "r.jsonl")
        store.append({"cell": "a"})
        with store.path.open("a") as handle:
            handle.write('{"cell": "b", "co')  # crash mid-write
        store.append({"cell": "c"})
        assert [r["cell"] for r in store.load()] == ["a", "c"], (
            "appending after a crash must truncate the torn remnant, not "
            "fuse the new record onto it"
        )

    def test_corruption_before_end_raises(self, tmp_path):
        store = ResultsStore(tmp_path / "r.jsonl")
        store.path.write_text('{"cell": "a"}\nGARBAGE\n{"cell": "c"}\n')
        with pytest.raises(StoreCorruption):
            store.load()


def _store_bytes(store: ResultsStore) -> bytes:
    return store.path.read_bytes()


class TestCampaignDeterminism:
    def test_same_grid_twice_is_byte_identical(self, tmp_path):
        grid = tiny_grid()
        first = ResultsStore(tmp_path / "first.jsonl")
        second = ResultsStore(tmp_path / "second.jsonl")
        run_campaign(grid, first, workers=1)
        run_campaign(grid, second, workers=1)
        assert _store_bytes(first) == _store_bytes(second)
        # Lint rule D5's dynamic twin: every line is canonical JSON.
        lines = _store_bytes(first).decode("utf-8").splitlines()
        assert lines
        for line in lines:
            assert line == json.dumps(json.loads(line), sort_keys=True)

    def test_pool_matches_serial_byte_for_byte(self, tmp_path):
        grid = tiny_grid()
        serial = ResultsStore(tmp_path / "serial.jsonl")
        pooled = ResultsStore(tmp_path / "pooled.jsonl")
        run_campaign(grid, serial, workers=1)
        run_campaign(grid, pooled, workers=2)
        assert _store_bytes(serial) == _store_bytes(pooled)

    def test_profile_sidecar_leaves_the_store_byte_identical(self, tmp_path):
        grid = tiny_grid()
        plain = ResultsStore(tmp_path / "plain.jsonl")
        profiled = ResultsStore(tmp_path / "profiled.jsonl")
        sidecar = tmp_path / "profiled.profile.jsonl"
        run_campaign(grid, plain, workers=1)
        run_campaign(grid, profiled, workers=1, profile_path=sidecar)
        assert _store_bytes(plain) == _store_bytes(profiled), (
            "wall-clock profiling leaked into the deterministic store"
        )
        cells = [json.loads(line)["cell"] for line in sidecar.read_text().splitlines()]
        assert cells == [record["cell"] for record in profiled.load()]

    def test_master_seed_changes_records(self, tmp_path):
        one = ResultsStore(tmp_path / "one.jsonl")
        two = ResultsStore(tmp_path / "two.jsonl")
        run_campaign(tiny_grid(master_seed=7), one, workers=1)
        run_campaign(tiny_grid(master_seed=8), two, workers=1)
        seeds_one = [r["seed"] for r in one.load()]
        seeds_two = [r["seed"] for r in two.load()]
        assert seeds_one != seeds_two


class TestResume:
    def test_resume_skips_completed_cells_without_recomputation(
        self, tmp_path, monkeypatch
    ):
        grid = tiny_grid()
        # Uninterrupted reference run.
        reference = ResultsStore(tmp_path / "reference.jsonl")
        run_campaign(grid, reference, workers=1)

        # "Killed" run: only the first two cells made it to the store.
        partial = ResultsStore(tmp_path / "partial.jsonl")
        for record in reference.load()[:2]:
            partial.append(record)

        import repro.campaign.runner as runner_module

        executed = []
        real = runner_module.cell_record

        def counting(cell, spec):
            executed.append(cell.cell_id)
            return real(cell, spec)

        monkeypatch.setattr(runner_module, "cell_record", counting)
        report = run_campaign(grid, partial, workers=1)
        assert report.skipped == 2
        assert len(report.executed) == 2
        assert executed == ["beta|met|1x|s0", "beta|tiramola|1x|s0"]
        assert _store_bytes(partial) == _store_bytes(reference), (
            "a resumed store must end up byte-identical to an uninterrupted run"
        )

    def test_resume_after_torn_final_line(self, tmp_path):
        grid = tiny_grid()
        reference = ResultsStore(tmp_path / "reference.jsonl")
        run_campaign(grid, reference, workers=1)

        torn = ResultsStore(tmp_path / "torn.jsonl")
        lines = reference.path.read_text().splitlines(keepends=True)
        torn.path.write_text(lines[0] + lines[1][: len(lines[1]) // 2])
        report = run_campaign(grid, torn, workers=1)
        # The torn cell re-ran; the healthy one resumed...
        assert report.skipped == 1
        assert len(report.executed) == 3
        # ...and the store holds every record exactly once (the torn
        # remnant replaced, order by completion: survivor first).
        records = {record["cell"] for record in torn.load()}
        assert records == {record["cell"] for record in reference.load()}


class TestAnalysis:
    RECORDS = [
        {
            "scenario": "alpha", "scale": "1x", "controller": "met",
            "mean_throughput": 100.0, "violation_minutes": 2.0, "cost": 1.0,
            "machine_minutes": 10.0, "assertions_passed": True, "p99_ms": 12.0,
        },
        {
            "scenario": "alpha", "scale": "1x", "controller": "met",
            "mean_throughput": 200.0, "violation_minutes": 0.0, "cost": 3.0,
            "machine_minutes": 30.0, "assertions_passed": False, "p99_ms": 20.0,
        },
        {
            "scenario": "alpha", "scale": "1x", "controller": "tiramola",
            "mean_throughput": 150.0, "violation_minutes": 1.0, "cost": 2.0,
            "machine_minutes": 20.0, "assertions_passed": True, "p99_ms": 15.0,
        },
    ]

    def test_aggregate_means_over_seeds(self):
        rows = aggregate_records(self.RECORDS)
        met = next(row for row in rows if row.controller == "met")
        assert met.runs == 2
        assert met.mean_throughput == pytest.approx(150.0)
        assert met.violation_minutes == pytest.approx(1.0)
        assert met.cost == pytest.approx(2.0)
        assert met.assertions_passed is False, "one failed seed fails the cell"

    def test_table_renders_side_by_side(self):
        table = render_campaign_table(self.RECORDS)
        assert "met:viol-min" in table
        assert "tiramola:cost" in table
        assert "alpha" in table

    def test_seed_quantile_table_is_pinned(self):
        records = [*self.RECORDS, dict(self.RECORDS[0], scale="2x", p99_ms=30.0)]
        assert render_seed_quantile_table(records).splitlines() == [
            "seed-axis quantiles of p99_ms",
            "scenario  controller  seeds  p5     p25    p50    p75    p95  ",
            "--------  ----------  -----  -----  -----  -----  -----  -----",
            "alpha     met         2      12.40  14.00  16.00  18.00  19.60",
            "alpha     tiramola    1      15.00  15.00  15.00  15.00  15.00",
            "alpha@2x  met         1      30.00  30.00  30.00  30.00  30.00",
        ]

    def test_scale_suffix_only_off_baseline(self):
        records = [dict(self.RECORDS[0]), dict(self.RECORDS[0], scale="2x")]
        rows = aggregate_records(records)
        assert [row.label for row in rows] == ["alpha", "alpha@2x"]
