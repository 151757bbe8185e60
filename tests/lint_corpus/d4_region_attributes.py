"""Corpus: rule D4's caller audit of unhooked SimulatedRegion attributes.

``size_bytes`` and the region shape fields feed the solver, but no
``__setattr__`` hook sees them change: a direct write must be followed by
an invalidation or go through a declared mutator.
"""


def stale_growth(simulator, factor: float) -> None:
    for region in simulator.regions.values():
        region.size_bytes *= factor  # expect: D4


def stale_shape(region) -> None:
    region.record_size = 2048  # expect: D4
    region.scan_length = 100  # expect: D4
    region.hot_data_fraction = 0.2  # expect: D4
    region.hot_request_fraction = 0.9  # expect: D4


def invalidated_growth(simulator, region) -> None:
    region.size_bytes = 4e9
    simulator.invalidate_solution()


def declared_growth(simulator, factor: float) -> None:
    simulator.grow_workload_data("tenant", factor)


def unrelated_size(profile) -> None:
    # Not solver state: the receiver carries no solver-state hint.
    profile.size_bytes = 2.5e9
