"""Corpus: rule D4's caller-side audit of hooked region attributes.

``SimulatedRegion.__setattr__`` only sees assignments, so an in-place set
method on ``.block_homes`` (or ``.node``) changes locality with nothing
bumped -- unless the enclosing function invalidates.
"""


def stale_add(region) -> None:
    region.block_homes.add("n2")  # expect: D4


def stale_clear(simulator) -> None:
    simulator.regions["r1"].block_homes.clear()  # expect: D4


def discharged_discard(simulator, region) -> None:
    region.block_homes.discard("n1")
    simulator.invalidate_solution()


def augmented_union(region) -> None:
    # Python assigns the result of |= back through __setattr__: hooked.
    region.block_homes |= {"n3"}
