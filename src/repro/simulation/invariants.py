"""The dirty-signature mutator inventory, as machine-checkable data.

The event kernel caches a fixed-point solution between ticks and only
recomputes it when the cluster's *dirty signature* changes (see
``ClusterSimulator.invalidate_solution`` and PERFORMANCE.md).  That
discipline is a contract: every method that mutates solver-feeding state
must either bump a dirty marker itself or write through an attribute
hook that does.  This module declares that contract as plain data so the
static pass (``python -m repro.analysis``, rule D4) can cross-reference
the declaration against the actual method bodies -- an undeclared
mutator or a declared mutator that forgets to invalidate fails lint, not
a soak.

Keep this file boring: sets of names only, no imports from the
simulation package (the linter loads it without executing simulation
code, and ``tests/test_invariants.py`` checks every name against the
live class).
"""

from __future__ import annotations

# Methods that change cluster *structure* (nodes joining/leaving/changing
# shape, regions moving).  Each must bump the structure version, directly
# via _mark_structure() / invalidate_solution() or through the hooked
# SimulatedRegion attributes below.
STRUCTURE_MUTATORS: frozenset[str] = frozenset(
    {
        "add_node",
        "remove_node",
        "add_region",
        "move_region",
        "reconfigure_node",
        "fail_node",
        "rejoin_node",
        "degrade_node",
        "restore_node",
        "_advance_node_states",
        "_reindex_region",
    }
)

# Methods that change *workload* bindings (what the tenants ask for) or
# the data they touch (compaction backlog, region sizes).  Each must set
# the workload-dirty flag via _mark_dirty() / notify_workload_changed() /
# invalidate_solution().
WORKLOAD_MUTATORS: frozenset[str] = frozenset(
    {
        "attach_workload",
        "detach_workload",
        "update_workload",
        "major_compact",
        "grow_workload_data",
    }
)

# The invalidation entry points themselves.  A declared mutator
# discharges its obligation by calling one of these (or another declared
# mutator, which bottoms out here).
DIRTY_MARKERS: frozenset[str] = frozenset(
    {
        "invalidate_solution",
        "notify_workload_changed",
        "_mark_dirty",
        "_mark_structure",
    }
)

# SimulatedRegion attributes intercepted by __setattr__: assigning them
# re-indexes / bumps the structure version automatically, so plain
# ``region.node = ...`` (and augmented ``region.block_homes |= s``, which
# assigns after the operator) is already safe and rule D4 treats such
# writes as discharged.  An in-place call such as
# ``region.block_homes.add(n)`` never reaches the hook, so D4 treats it as
# a mutation that a declared mutator or a dirty marker must cover.
HOOKED_REGION_ATTRIBUTES: frozenset[str] = frozenset({"node", "block_homes"})

# SimulatedNode attributes the fixed-point solver reads.  Writing them
# outside a declared mutator (or without invalidating afterwards) leaves
# a stale cached solution.  ``profile_name`` is deliberately absent: it
# is a display label the solver never reads.
GUARDED_NODE_ATTRIBUTES: frozenset[str] = frozenset(
    {
        "config",
        "hardware",
        "state",
        "state_until",
        "pending_compaction_bytes",
    }
)

# SimulatedRegion attributes the solver reads that no __setattr__ hook
# intercepts.  A direct write leaves the cached fixed point serving hit
# ratios and costs from the old values; ``grow_workload_data`` is the
# declared way to resize a tenant's regions.
GUARDED_REGION_ATTRIBUTES: frozenset[str] = frozenset(
    {
        "size_bytes",
        "record_size",
        "scan_length",
        "hot_data_fraction",
        "hot_request_fraction",
    }
)

# WorkloadBinding attributes the solver reads.
GUARDED_BINDING_ATTRIBUTES: frozenset[str] = frozenset(
    {
        "op_mix",
        "target_ops_per_second",
        "threads",
    }
)

# ClusterSimulator containers whose membership *is* the cluster shape:
# adding/removing/replacing entries is a structural mutation.
SOLVER_STATE_CONTAINERS: frozenset[str] = frozenset({"nodes", "regions", "bindings"})

# Tick machinery: methods that advance simulated time and apply solver
# output back onto the cluster.  They write guarded state by design
# (that is their job -- e.g. macro_tick draining pending compaction
# bytes, _plan_apply growing region sizes by the solved insert rates) and
# manage the dirty signature explicitly, so rule D4 exempts them rather
# than demanding a declaration per write.
TICK_MACHINERY: frozenset[str] = frozenset(
    {
        "__init__",
        "tick",
        "run",
        "macro_tick",
        "_apply_tick_results",
        "_plan_apply",
        "_progress_compactions",
        "dispose",
    }
)

# Set-valued region attributes whose raw iteration order is
# PYTHONHASHSEED-dependent: rule D3 flags unsorted iteration over them.
ORDER_SENSITIVE_SET_ATTRIBUTES: frozenset[str] = frozenset({"block_homes"})

DECLARED_MUTATORS: frozenset[str] = STRUCTURE_MUTATORS | WORKLOAD_MUTATORS

__all__ = [
    "STRUCTURE_MUTATORS",
    "WORKLOAD_MUTATORS",
    "DIRTY_MARKERS",
    "HOOKED_REGION_ATTRIBUTES",
    "GUARDED_NODE_ATTRIBUTES",
    "GUARDED_REGION_ATTRIBUTES",
    "GUARDED_BINDING_ATTRIBUTES",
    "SOLVER_STATE_CONTAINERS",
    "TICK_MACHINERY",
    "ORDER_SENSITIVE_SET_ATTRIBUTES",
    "DECLARED_MUTATORS",
]
