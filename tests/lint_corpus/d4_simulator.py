# repro: scope(simulator)
"""Corpus: rule D4's internal audit of a ClusterSimulator class body.

The class stubs every mutator the real inventory declares (so there are
no stale-inventory findings) and then violates the contract four times:
a declared mutator that forgets its dirty marker, an undeclared method
that mutates a solver-state container, an undeclared method that mutates
a hooked region attribute in place (bypassing ``__setattr__``) and an
undeclared method that resizes a region.  The same in-place call and the
same resize inside declared mutators that mark the solution dirty stay
clean.
"""


class ClusterSimulator:
    def __init__(self) -> None:
        self.nodes = {}
        self.regions = {}
        self.bindings = {}

    # -- dirty markers ---------------------------------------------------
    def invalidate_solution(self) -> None: ...
    def notify_workload_changed(self) -> None: ...
    def _mark_dirty(self) -> None: ...
    def _mark_structure(self) -> None: ...

    # -- declared mutators, compliant -------------------------------------
    def remove_node(self, name: str) -> None:
        del self.nodes[name]
        self._mark_structure()

    def update_workload(self, name: str) -> None:
        self.bindings[name] = object()
        self._mark_dirty()

    def add_region(self, region, node: str) -> None:
        region.block_homes.add(node)
        self._mark_structure()

    def grow_workload_data(self, workload: str, factor: float) -> None:
        for region in self.regions.values():
            region.size_bytes *= factor
        self._mark_dirty()

    def move_region(self) -> None: ...
    def reconfigure_node(self) -> None: ...
    def fail_node(self) -> None: ...
    def degrade_node(self) -> None: ...
    def restore_node(self) -> None: ...
    def attach_workload(self) -> None: ...
    def detach_workload(self) -> None: ...
    def major_compact(self) -> None: ...
    def _advance_node_states(self) -> None: ...
    def _reindex_region(self) -> None: ...

    # -- violations --------------------------------------------------------
    def add_node(self, name: str) -> None:  # expect: D4
        # Declared mutator, but never calls a dirty marker.
        self.nodes[name] = object()

    def sneaky_swap(self, name: str) -> None:  # expect: D4
        # Mutates a solver-state container without being declared.
        self.regions[name] = None

    def sneaky_rehome(self, region, name: str) -> None:  # expect: D4
        # In-place set mutation: the block_homes hook never fires.
        region.block_homes.discard(name)

    def sneaky_resize(self, region) -> None:  # expect: D4
        # Region sizes feed the solver and no hook sees the write.
        region.size_bytes = 0.0
