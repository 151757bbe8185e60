"""The declared mutator inventory matches the live simulator.

``repro.simulation.invariants`` is the source of truth rule D4 audits
against; these tests pin the other direction -- the declaration cannot
drift away from the class it describes.
"""

import inspect

from repro.simulation import invariants
from repro.simulation.cluster import ClusterSimulator, SimulatedRegion


def test_declared_mutators_are_real_methods():
    for name in sorted(invariants.DECLARED_MUTATORS | invariants.DIRTY_MARKERS):
        member = inspect.getattr_static(ClusterSimulator, name, None)
        assert callable(member), f"inventory names missing method {name!r}"


def test_tick_machinery_is_real():
    for name in sorted(invariants.TICK_MACHINERY):
        assert callable(inspect.getattr_static(ClusterSimulator, name, None)), name


def test_inventory_sets_are_disjoint():
    assert not invariants.DECLARED_MUTATORS & invariants.TICK_MACHINERY
    assert not invariants.DECLARED_MUTATORS & invariants.DIRTY_MARKERS
    assert not invariants.STRUCTURE_MUTATORS & invariants.WORKLOAD_MUTATORS


def test_hooked_region_attributes_are_intercepted():
    hook = SimulatedRegion.__setattr__
    source = inspect.getsource(hook)
    for attr in sorted(invariants.HOOKED_REGION_ATTRIBUTES):
        assert f'"{attr}"' in source or f"'{attr}'" in source, (
            f"SimulatedRegion.__setattr__ no longer special-cases {attr!r}; "
            "update invariants.HOOKED_REGION_ATTRIBUTES and rule D4"
        )


def test_guarded_node_attributes_exist(simulator):
    node = next(iter(simulator.nodes.values()))
    for attr in sorted(invariants.GUARDED_NODE_ATTRIBUTES):
        assert hasattr(node, attr), f"SimulatedNode lost attribute {attr!r}"


def test_guarded_region_attributes_exist(simulator):
    region = simulator.add_region("r-guard", workload="w", size_bytes=1.0)
    for attr in sorted(invariants.GUARDED_REGION_ATTRIBUTES):
        assert hasattr(region, attr), f"SimulatedRegion lost attribute {attr!r}"
    # Hooked attributes invalidate by themselves; guarded ones never do.
    assert not invariants.GUARDED_REGION_ATTRIBUTES & invariants.HOOKED_REGION_ATTRIBUTES


def test_grow_workload_data_drops_the_cached_solution(simulator):
    names = sorted(simulator.nodes)
    simulator.add_region("r-grow", workload="w", size_bytes=1e8, node=names[0])
    simulator.run(10.0)
    assert simulator._solver.reuse({}) is not None
    assert simulator.grow_workload_data("w", 2.0) == 1
    assert simulator.regions["r-grow"].size_bytes == 2e8
    assert simulator._solver.reuse({}) is None


def test_guarded_binding_attributes_exist(paper_simulator):
    binding = next(iter(paper_simulator.bindings.values()))
    for attr in sorted(invariants.GUARDED_BINDING_ATTRIBUTES):
        assert hasattr(binding, attr), f"WorkloadBinding lost attribute {attr!r}"


def test_solver_state_containers_exist(simulator):
    for attr in sorted(invariants.SOLVER_STATE_CONTAINERS):
        assert isinstance(getattr(simulator, attr), dict)


def test_region_node_hook_bumps_structure_version(simulator):
    names = sorted(simulator.nodes)
    region = simulator.add_region("r-hook", workload="w", size_bytes=1.0, node=names[0])
    before = simulator._structure_version
    region.node = names[1]
    assert simulator._structure_version > before, (
        "assigning region.node no longer bumps the structure version -- the "
        "hook rule D4 relies on is gone"
    )
    before = simulator._structure_version
    region.block_homes = {names[1]}
    assert simulator._structure_version > before
