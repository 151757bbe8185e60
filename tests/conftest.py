"""Shared fixtures for the test suite."""

import pytest

from repro.analysis import sanitizer
from repro.simulation.cluster import ClusterSimulator
from repro.workloads.ycsb.scenario import build_paper_scenario


@pytest.fixture
def determinism_guard():
    """Run the test under the runtime determinism sanitizer.

    Inside the scope, wall-clock reads (``time.time``/``perf_counter``/...)
    and global-RNG draws (``random.random``/``shuffle``/...) raise
    :class:`repro.analysis.sanitizer.DeterminismViolation`.  Seeded
    ``random.Random`` instances and ``repro.util.wallclock`` keep working.
    The golden and campaign suites opt in module-wide via an autouse
    fixture; any determinism-sensitive test can request this directly.
    """
    with sanitizer.guard():
        yield


@pytest.fixture
def simulator() -> ClusterSimulator:
    """A small simulated cluster with three online nodes."""
    sim = ClusterSimulator()
    for _ in range(3):
        sim.add_node()
    return sim


@pytest.fixture
def paper_simulator() -> ClusterSimulator:
    """A 5-node simulator with the paper's six-tenant YCSB scenario attached."""
    sim = ClusterSimulator()
    nodes = [sim.add_node() for _ in range(5)]
    scenario = build_paper_scenario(sim)
    # Spread partitions round-robin and make them local so ticks can run.
    for index, spec in enumerate(scenario.partitions):
        node = nodes[index % len(nodes)]
        region = sim.regions[spec.partition_id]
        region.node = node
        region.block_homes = {node}
    sim.paper_scenario = scenario
    return sim
