"""Time-stepped cluster simulator.

:class:`ClusterSimulator` is the analytical substitute for the paper's
physical HBase/HDFS deployment.  It tracks RegionServers (with their
heterogeneous configurations), data partitions (Regions), and the closed-loop
client populations, and advances them in fixed ticks.

The simulator exposes exactly the observables and actions that the MeT
framework, the tiramola baseline and the manual strategies need:

* observables -- per-node system metrics (CPU, I/O wait, memory), per-node
  locality index, per-region read/write/scan counters, per-tenant
  throughput;
* actions -- add/remove nodes (with IaaS-like boot delays), reconfigure a
  node (drain + restart), move regions, trigger major compactions.

Each tick solves the closed-loop throughput fixed point with
:class:`~repro.simulation.solvers.EventSolver`, which reads the simulator's
incremental ``node -> regions`` index and reuses a tick-stable, insert-free
solution until a mutation dirties it.

Simulated time moves through one step, :meth:`ClusterSimulator.advance`:
one macro-tick over a quiescent stretch, else one real tick.  How far a
macro-tick may reach is read off node state -- the earliest boot/restart
deadline or compaction completion (:meth:`ClusterSimulator.quiescent_ticks`)
-- and callers (:meth:`ClusterSimulator.run`, the experiment harness) may
bound it further.  Tick timestamps come from the clock alone
(:meth:`~repro.simulation.clock.SimulationClock.advance`), so a
fast-forwarded run records at the same instants as a tick-by-tick one.
:class:`KernelStats` counts how the ticks were spent.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from operator import attrgetter

from repro.hbase.config import DEFAULT_HOMOGENEOUS, RegionServerConfig
from repro.util.rng import make_rng
from repro.simulation.clock import SimulationClock
from repro.simulation.hardware import MB, HardwareSpec
from repro.simulation.metrics import MetricsRegistry
from repro.simulation.perfmodel import PerformanceModel
from repro.simulation.solvers import EventSolver, SolveResult
from repro.simulation.workload import WorkloadBinding

#: Time for a new virtual machine to boot and join the cluster (seconds).
DEFAULT_BOOT_SECONDS = 90.0
#: Time for a RegionServer restart during reconfiguration (seconds).
RESTART_SECONDS = 35.0
#: Share of disk bandwidth a major compaction may consume.
COMPACTION_DISK_SHARE = 0.45
#: Locality of a region right after it is moved to a node that does not hold
#: its blocks (some blocks may still be cached or co-located by chance).
REMOTE_LOCALITY = 0.05

#: Node lifecycle states.
STATE_ONLINE = "online"
STATE_BOOTING = "booting"
STATE_RESTARTING = "restarting"

#: Safety margin (ticks) by which the fast-forward horizon stops short of a
#: compaction's completion: the ticks between the horizon and the actual
#: completion are simulated for real (cheap -- the cached solution is still
#: reused), which keeps macro-tick spans strictly clear of the completion tick.
_COMPACTION_MARGIN_TICKS = 2.0

_REGION_SEQ = attrgetter("_seq")


class SimulationError(RuntimeError):
    """Raised on invalid cluster operations (unknown node, bad move, ...)."""


@dataclass
class KernelStats:
    """How the simulator spent its simulated ticks.

    ``ticks`` counts every simulated tick; each tick is either a real
    ``solve``, a ``reused`` tick (cached fixed point replayed through a
    normal :meth:`ClusterSimulator.tick`), or a ``skipped`` tick covered by
    a fast-forwarded macro-tick (``macro_batches`` counts the batches).  The
    benchmark's ``kernel.*`` metrics and the quiescence regression tests
    read these counters.
    """

    ticks: int = 0
    solves: int = 0
    reused_ticks: int = 0
    skipped_ticks: int = 0
    macro_batches: int = 0


@dataclass
class SimulatedRegion:
    """One data partition (an HBase Region) in the simulator."""

    region_id: str
    workload: str
    size_bytes: float
    record_size: int = 1024
    scan_length: int = 50
    hot_data_fraction: float = 0.40
    hot_request_fraction: float = 0.50
    node: str | None = None
    block_homes: set[str] = field(default_factory=set)
    reads: float = 0.0
    writes: float = 0.0
    scans: float = 0.0

    def __setattr__(self, name: str, value) -> None:
        # Keep the owning simulator's node->regions index coherent even when
        # callers assign ``region.node`` directly (placement plans and test
        # fixtures do); regions created outside a simulator have no owner.
        if name == "node":
            old = getattr(self, "node", None)
            object.__setattr__(self, name, value)
            owner = getattr(self, "_owner", None)
            if owner is not None and old != value:
                owner._reindex_region(self, old, value)
            return
        object.__setattr__(self, name, value)
        if name == "block_homes":
            # Replacing the block-home set changes locality, which the
            # cached solution depends on (compaction completions and
            # placement plans assign it directly).
            owner = getattr(self, "_owner", None)
            if owner is not None:
                owner._mark_structure()

    @property
    def locality(self) -> float:
        """1.0 when the hosting node also stores the region's blocks."""
        if self.node is None:
            return 0.0
        return 1.0 if self.node in self.block_homes else REMOTE_LOCALITY


@dataclass
class SimulatedNode:
    """One RegionServer/DataNode pair in the simulator."""

    name: str
    hardware: HardwareSpec
    config: RegionServerConfig
    state: str = STATE_ONLINE
    state_until: float = 0.0
    profile_name: str = "default"
    pending_compaction_bytes: float = 0.0
    cpu_utilization: float = 0.0
    io_wait: float = 0.0
    memory_utilization: float = 0.0

    @property
    def online(self) -> bool:
        """Whether the node currently serves requests."""
        return self.state == STATE_ONLINE


class ClusterSimulator:
    """Analytical simulation of an HBase cluster under closed-loop load."""

    def __init__(
        self,
        hardware: HardwareSpec | None = None,
        default_config: RegionServerConfig | None = None,
        boot_seconds: float = DEFAULT_BOOT_SECONDS,
        tick_seconds: float = 5.0,
        seed: int | random.Random = 0,
    ) -> None:
        #: The run's randomness stream.  The simulator itself is fully
        #: deterministic; this generator is what scenario components
        #: (balancers, scenario faults, arriving-tenant placement) share so
        #: a whole run replays bit-identically from one seed.
        self.rng = make_rng(seed)
        self.hardware = hardware or HardwareSpec()
        self.default_config = (default_config or DEFAULT_HOMOGENEOUS).validate()
        self.boot_seconds = boot_seconds
        self.clock = SimulationClock(tick_seconds=tick_seconds)
        self.metrics = MetricsRegistry()
        self.nodes: dict[str, SimulatedNode] = {}
        self.regions: dict[str, SimulatedRegion] = {}
        self.bindings: dict[str, WorkloadBinding] = {}
        self._node_counter = itertools.count(1)
        self._region_seq = itertools.count()
        self._model_cache: dict[HardwareSpec, PerformanceModel] = {}
        self._binding_throughput: dict[str, float] = {}
        #: Incremental node -> {region_id -> region} index (``None`` bucket
        #: holds unassigned regions); kept coherent by SimulatedRegion's
        #: ``node`` setter hook.
        self._regions_by_node: dict[str | None, dict[str, SimulatedRegion]] = {}
        #: Per-node counters bumped whenever a region enters/leaves a node.
        self._assignment_versions: dict[str | None, int] = {}
        #: Per-node (version, creation-ordered regions) cache for regions_on.
        self._sorted_regions_cache: dict[str, tuple[int, list[SimulatedRegion]]] = {}
        #: How the current solution was last applied (see _ApplyPlan).
        self._apply_plan: _ApplyPlan | None = None
        #: Bumped on attach/detach; invalidates the cached rate context.
        self._workloads_version = 0
        #: Bumped on any topology/config/hardware/assignment/locality change;
        #: together with the workload version it forms the signature the
        #: solver's cached solution and vector context are keyed on.
        self._structure_version = 0
        #: Pre-fault hardware of degraded nodes (see degrade_node).
        self._healthy_hardware: dict[str, HardwareSpec] = {}
        #: Crashed node -> (healthy hardware, config, profile), in crash
        #: order, for rejoin_node.
        self._crashed: dict[str, tuple[HardwareSpec, RegionServerConfig, str]] = {}
        self.total_ops = 0.0
        #: Tick/solve/skip counters (benchmark + regression instrumentation).
        self.stats = KernelStats()
        self._solver = EventSolver(self)

    # ------------------------------------------------------------------ #
    # topology management
    # ------------------------------------------------------------------ #
    def add_node(
        self,
        name: str | None = None,
        config: RegionServerConfig | None = None,
        hardware: HardwareSpec | None = None,
        profile_name: str = "default",
        online: bool = True,
    ) -> str:
        """Add a node; ``online=False`` makes it boot asynchronously."""
        if name is None:
            name = f"rs-{next(self._node_counter)}"
        if name in self.nodes:
            raise SimulationError(f"node {name!r} already exists")
        node = SimulatedNode(
            name=name,
            hardware=hardware or self.hardware,
            config=(config or self.default_config).validate(),
            profile_name=profile_name,
        )
        if not online:
            node.state = STATE_BOOTING
            node.state_until = self.clock.now + self.boot_seconds
        self.nodes[name] = node
        self._mark_structure()
        return name

    def remove_node(self, name: str) -> None:
        """Remove a node, reassigning its regions to the least-loaded nodes."""
        node = self._node(name)
        hosted = self.regions_on(name)
        del self.nodes[node.name]
        self._solver.forget_node(name)
        self._healthy_hardware.pop(name, None)
        self._mark_structure()
        counts, candidates = self._drain_counts(exclude_name=name)
        for region in hosted:
            target = _pick_least_loaded(counts, candidates)
            region.node = target
            if target is not None:
                counts[target] += 1
        self._regions_by_node.pop(name, None)
        self._assignment_versions.pop(name, None)
        self._sorted_regions_cache.pop(name, None)
        # Blocks stored on the removed node are re-replicated elsewhere over
        # time; approximate by dropping it from every region's block homes.
        for region in self.regions.values():
            region.block_homes.discard(name)

    def add_region(
        self,
        region_id: str,
        workload: str,
        size_bytes: float,
        node: str | None = None,
        record_size: int = 1024,
        scan_length: int = 50,
        hot_data_fraction: float = 0.40,
        hot_request_fraction: float = 0.50,
    ) -> SimulatedRegion:
        """Create a region; its blocks are initially local to its node."""
        if region_id in self.regions:
            raise SimulationError(f"region {region_id!r} already exists")
        region = SimulatedRegion(
            region_id=region_id,
            workload=workload,
            size_bytes=size_bytes,
            record_size=record_size,
            scan_length=scan_length,
            hot_data_fraction=hot_data_fraction,
            hot_request_fraction=hot_request_fraction,
            node=node,
        )
        if node is not None:
            self._node(node)
            region.block_homes.add(node)
        self.regions[region_id] = region
        region._seq = next(self._region_seq)
        self._regions_by_node.setdefault(node, {})[region_id] = region
        self._assignment_versions[node] = self._assignment_versions.get(node, 0) + 1
        region._owner = self
        self._mark_structure()
        return region

    def move_region(self, region_id: str, node_name: str) -> None:
        """Reassign a region to another node (cheap metadata operation)."""
        region = self._region(region_id)
        node = self._node(node_name)
        region.node = node.name

    def reconfigure_node(
        self,
        name: str,
        config: RegionServerConfig,
        profile_name: str | None = None,
        drain: bool = True,
    ) -> list[str]:
        """Restart a node with a new configuration.

        When ``drain`` is true (the MeT actuator behaviour, Section 5), the
        node's regions are first redistributed across the remaining online
        nodes so data stays available during the restart.  Returns the ids of
        the drained regions so the caller can move them back afterwards.
        """
        node = self._node(name)
        drained: list[str] = []
        if drain:
            hosted = self.regions_on(name)
            if hosted:
                counts, candidates = self._drain_counts(exclude_name=name)
                for region in hosted:
                    target = _pick_least_loaded(counts, candidates)
                    if target is not None:
                        region.node = target
                        counts[target] += 1
                    drained.append(region.region_id)
        node.config = config.validate()
        if profile_name is not None:
            node.profile_name = profile_name
        node.state = STATE_RESTARTING
        node.state_until = self.clock.now + RESTART_SECONDS
        self._mark_structure()
        return drained

    def major_compact(self, name: str) -> float:
        """Schedule a major compaction of the node's non-local regions.

        Returns the number of bytes that will be rewritten.  While the
        compaction runs it consumes part of the node's disk bandwidth; when
        it completes, the compacted regions become fully local to the node.
        """
        node = self._node(name)
        bytes_to_rewrite = sum(
            region.size_bytes
            for region in self.regions_on(name)
            if region.locality < 1.0
        )
        node.pending_compaction_bytes += bytes_to_rewrite
        self._mark_dirty()
        return bytes_to_rewrite

    def grow_workload_data(self, workload: str, factor: float) -> int:
        """Multiply the size of every region of ``workload`` (data growth).

        Region sizes drive hit ratios, memory and locality weights, so any
        cached fixed point is dropped.  Returns the number of regions grown.
        """
        grown = 0
        for region in self.regions.values():
            if region.workload == workload:
                region.size_bytes *= factor
                grown += 1
        if grown:
            self._mark_dirty()
        return grown

    # ------------------------------------------------------------------ #
    # fault injection
    # ------------------------------------------------------------------ #
    def fail_node(self, name: str) -> None:
        """Crash a node: it disappears and its regions are reassigned.

        Unlike a controller-initiated :meth:`remove_node` the crash is not
        graceful, but the observable aftermath is the same as in HBase once
        the master notices the dead RegionServer: regions reopen on the
        remaining nodes with remote blocks (locality loss) and the crashed
        node's block replicas are re-replicated elsewhere.  The machine is
        remembered at full health -- a degraded straggler is repaired as a
        fresh one -- so :meth:`rejoin_node` can bring it back.
        """
        node = self._node(name)
        self._crashed[node.name] = (
            self._healthy_hardware.get(node.name, node.hardware),
            node.config,
            node.profile_name,
        )
        self.remove_node(node.name)

    @property
    def crashed_nodes(self) -> list[str]:
        """Crashed nodes not yet rejoined, oldest crash first."""
        return list(self._crashed)

    def rejoin_node(self, name: str) -> None:
        """A crashed node is repaired and rejoins the cluster.

        It rejoins empty (its regions were reassigned at crash time) and
        boots for the usual boot delay before coming online.
        """
        try:
            hardware, config, profile_name = self._crashed.pop(name)
        except KeyError:
            raise SimulationError(f"node {name!r} has not crashed") from None
        self.add_node(
            name=name,
            config=config,
            hardware=hardware,
            profile_name=profile_name,
            online=False,
        )

    def degrade_node(
        self,
        name: str,
        factor: float = 1.0,
        cpu: float | None = None,
        disk: float | None = None,
        network: float | None = None,
    ) -> None:
        """Slow a node down: scale its resource budgets.

        ``factor`` scales every budget; the per-resource overrides replace it
        for one resource, so partial faults can be modelled -- e.g. a
        congested or partially partitioned link is ``network=0.15`` with CPU
        and disk untouched, a failing disk is ``disk=0.3``.  ``disk`` scales
        both the IOPS and the sequential-bandwidth budgets.

        Models a straggler VM (noisy neighbour, failing disk).  The original
        hardware is remembered so :meth:`restore_node` can undo the fault.
        Degradations do not compose: a second call rescales the *original*
        spec, so ``degrade_node(n, 1.0)`` is a restore.
        """
        cpu_factor = factor if cpu is None else cpu
        disk_factor = factor if disk is None else disk
        network_factor = factor if network is None else network
        for label, value in (
            ("cpu", cpu_factor), ("disk", disk_factor), ("network", network_factor)
        ):
            if not 0.0 < value <= 1.0:
                raise SimulationError(
                    f"{label} degradation factor must be in (0, 1], got {value!r}"
                )
        node = self._node(name)
        base = self._healthy_hardware.setdefault(name, node.hardware)
        node.hardware = HardwareSpec(
            cpu_millis_per_second=base.cpu_millis_per_second * cpu_factor,
            disk_iops=base.disk_iops * disk_factor,
            disk_mb_per_second=base.disk_mb_per_second * disk_factor,
            network_mb_per_second=base.network_mb_per_second * network_factor,
            memory_bytes=base.memory_bytes,
            heap_bytes=base.heap_bytes,
        )
        self._mark_structure()

    def restore_node(self, name: str) -> None:
        """Undo a :meth:`degrade_node` fault.

        No-op if the node is healthy or no longer exists -- a scheduled
        recovery may fire after a controller (or a crash) removed the
        straggler, and that must not abort the run.
        """
        base = self._healthy_hardware.pop(name, None)
        node = self.nodes.get(name)
        if node is not None and base is not None:
            node.hardware = base
            self._mark_structure()

    # ------------------------------------------------------------------ #
    # workload management
    # ------------------------------------------------------------------ #
    def attach_workload(self, binding: WorkloadBinding) -> None:
        """Attach a closed-loop client population."""
        for region_id in binding.regions():
            self._region(region_id)
        self.bindings[binding.name] = binding
        self._workloads_version += 1
        self._mark_dirty()

    def detach_workload(self, name: str) -> None:
        """Remove a client population (e.g. a tenant leaving)."""
        self.bindings.pop(name, None)
        # Drop the last achieved throughput too: a departed tenant must not
        # linger in cluster_throughput(), and a later binding reusing the
        # name must seed the fixed point fresh.
        self._binding_throughput.pop(name, None)
        self._workloads_version += 1
        self._mark_dirty()

    def update_workload(
        self,
        name: str,
        op_mix: dict[str, float] | None = None,
        target_ops_per_second: float | None | str = "unchanged",
        threads: int | None = None,
    ) -> None:
        """Mutate a live tenant (mix shifts, load curves, thread scaling).

        The solver caches per-region unit rates keyed on the workload
        version, so any change to the op mix (or the region weights) must go
        through here -- mutating the binding directly would leave the solver
        serving the stale mix.  Throughput targets are consulted live and
        need no invalidation, but routing them here keeps one entry point.
        """
        binding = self.bindings.get(name)
        if binding is None:
            raise SimulationError(f"unknown workload {name!r}")
        previous = (binding.op_mix, binding.target_ops_per_second, binding.threads)
        if op_mix is not None:
            binding.op_mix = dict(op_mix)
        if target_ops_per_second != "unchanged":
            binding.target_ops_per_second = target_ops_per_second
        if threads is not None:
            binding.threads = threads
        try:
            binding.validate()
        except ValueError:
            # Leave the binding as it was: a rejected update must not leak
            # an invalid mix into a simulator that keeps ticking.
            binding.op_mix, binding.target_ops_per_second, binding.threads = previous
            raise
        if op_mix is not None:
            self.notify_workload_changed()
        else:
            # Target/thread changes are consulted live but still invalidate
            # any cached solution.
            self._mark_dirty()

    def notify_workload_changed(self) -> None:
        """Invalidate caches derived from binding mixes/weights."""
        self._workloads_version += 1
        self._mark_dirty()

    # ------------------------------------------------------------------ #
    # queries used by controllers and experiments
    # ------------------------------------------------------------------ #
    def online_nodes(self) -> list[SimulatedNode]:
        """Nodes currently serving requests."""
        return [node for node in self.nodes.values() if node.online]

    def online_node_count(self) -> int:
        """Number of nodes currently serving requests (no list allocation)."""
        return sum(1 for node in self.nodes.values() if node.online)

    def regions_on(self, node_name: str) -> list[SimulatedRegion]:
        """Regions currently assigned to ``node_name``.

        Returned in global region-creation order (the order a full scan of
        :attr:`regions` produces), answered from the incremental index.
        """
        bucket = self._regions_by_node.get(node_name)
        if not bucket:
            return []
        # The sorted order only changes when the bucket's membership does,
        # which is exactly when the assignment version is bumped.
        version = self._assignment_versions.get(node_name, 0)
        cached = self._sorted_regions_cache.get(node_name)
        if cached is None or cached[0] != version:
            cached = (version, sorted(bucket.values(), key=_REGION_SEQ))
            self._sorted_regions_cache[node_name] = cached
        return list(cached[1])

    def node_locality_index(self, node_name: str) -> float:
        """Size-weighted locality of the regions hosted by a node."""
        return _size_weighted_locality(self.regions_on(node_name))

    def assignment(self) -> dict[str, str | None]:
        """Mapping region id -> hosting node name."""
        return {rid: region.node for rid, region in self.regions.items()}

    def binding_throughput(self, name: str) -> float:
        """Most recent achieved throughput of a tenant (ops/s)."""
        return self._binding_throughput.get(name, 0.0)

    def cluster_throughput(self) -> float:
        """Most recent total achieved throughput (ops/s)."""
        return sum(self._binding_throughput.values())

    # ------------------------------------------------------------------ #
    # simulation loop
    # ------------------------------------------------------------------ #
    def run(self, seconds: float) -> None:
        """Advance the simulation by ``seconds`` in whole ticks.

        Quiescent stretches are fast-forwarded in macro-ticks; everything
        else -- and any trailing partial tick -- advances tick by tick (see
        :meth:`advance`).  The loop stops on the instant ``now + seconds``
        computed once up front, so both paths end on the same float.
        """
        clock = self.clock
        end = clock.now + seconds
        while end - clock.now > 1e-9:
            self.advance(end - clock.now)

    def advance(self, seconds: float, max_ticks: int | None = None) -> float:
        """Take one step of at most ``seconds``; return the seconds covered.

        One macro-tick when at least two whole ticks fit in both ``seconds``
        and ``max_ticks`` (the caller's own bound, e.g. the next scheduled
        action) and :meth:`quiescent_ticks` vets them; otherwise one real
        tick of ``min(tick_seconds, seconds)``.
        """
        dt = self.clock.tick_seconds
        if seconds >= 2.0 * dt - 1e-9:
            budget = int((seconds + 1e-9) // dt)
            if max_ticks is not None and max_ticks < budget:
                budget = max_ticks
            if budget >= 2:
                skip = self.quiescent_ticks(budget)
                if skip >= 2:
                    self.macro_tick(skip)
                    return skip * dt
        step = dt if dt < seconds else seconds
        self.tick(step)
        return step

    def tick(self, seconds: float | None = None) -> None:
        """Advance the simulation by one tick."""
        dt = seconds if seconds is not None else self.clock.tick_seconds
        self._advance_node_states()
        compaction_bg = self._progress_compactions(dt)
        stats = self.stats
        stats.ticks += 1
        results = self._solver.reuse(compaction_bg)
        if results is None:
            results = self._solver.solve(compaction_bg)
            stats.solves += 1
        else:
            stats.reused_ticks += 1
        self._apply_tick_results(dt, 1, results)

    # ------------------------------------------------------------------ #
    # quiescence detection and fast-forward
    # ------------------------------------------------------------------ #
    def quiescent_ticks(self, max_ticks: int) -> int:
        """Number of immediately-upcoming ticks that can be fast-forwarded.

        0 unless the solver's cached solution is valid for the current
        compaction background and covers at least the next two ticks.  The
        horizon is the earliest internal state change, read off the nodes:
        a booting or restarting node's ``state_until``, or an online node's
        compaction completion less :data:`_COMPACTION_MARGIN_TICKS` ticks.
        Every returned tick starts strictly before the horizon, so the
        first tick at (or after) it is always simulated for real.  Callers
        combine this with their own bounds (scenario schedules, controller
        wake-ups, sampling cadences) before skipping.
        """
        if max_ticks < 2:
            return 0
        if self._solver.reuse(self._compaction_background()) is None:
            return 0
        now = self.clock.now
        dt = self.clock.tick_seconds
        horizon = float("inf")
        for node in self.nodes.values():
            if not node.online:
                until = node.state_until
            elif node.pending_compaction_bytes > 0:
                until = (
                    now
                    + node.pending_compaction_bytes / _compaction_rate(node)
                    - _COMPACTION_MARGIN_TICKS * dt
                )
            else:
                continue
            if until < horizon:
                horizon = until
        if horizon <= now + dt:
            return 0
        if horizon == float("inf"):
            return max_ticks
        ticks = int((horizon - now - 1e-9) // dt) + 1
        return min(ticks, max_ticks)

    def macro_tick(self, ticks: int) -> None:
        """Fast-forward ``ticks`` ticks by replaying the cached fixed point.

        Only valid for spans vetted by :meth:`quiescent_ticks`: no node
        lifecycle transition or compaction completion may fall inside the
        span.  Metric samples, counters and the clock advance exactly as
        ``ticks`` individual ticks would.  Raises
        :class:`SimulationError` when no cached solution is reusable for
        the current state, which a vetted span always has.
        """
        dt = self.clock.tick_seconds
        background = self._compaction_background()
        results = self._solver.reuse(background)
        if results is None:
            raise SimulationError(
                "macro_tick needs a span vetted by quiescent_ticks: "
                "no reusable solution covers it"
            )
        # No completion can occur in-span (the horizon's margin guarantees
        # pending stays positive), so the per-tick decrement collapses to
        # one multiply.
        nodes = self.nodes
        for name, rate in background.items():
            nodes[name].pending_compaction_bytes -= rate * dt * ticks
        self._apply_tick_results(dt, ticks, results)
        stats = self.stats
        stats.ticks += ticks
        stats.skipped_ticks += ticks
        stats.macro_batches += 1

    def invalidate_solution(self) -> None:
        """Force the solver to re-solve on the next tick.

        External code that mutates simulator state directly (placement
        plans, test fixtures) must call this; the simulator's own mutators
        do so automatically.
        """
        self._mark_structure()

    def dispose(self) -> None:
        """Sever the simulator's internal reference cycles; terminal.

        A discarded simulator (``run_scenario(keep_simulator=False)``, sweep
        workers looping over thousands of runs) would otherwise linger until
        a *cyclic* gc pass: every region holds an ``_owner`` back-reference
        and the solver points back at the simulator.  Disposal
        breaks those cycles so plain reference counting reclaims the whole
        object graph the moment the last external reference drops.  The
        simulator cannot be ticked afterwards.
        """
        for region in self.regions.values():
            object.__setattr__(region, "_owner", None)
        self._solver = None
        self._sorted_regions_cache.clear()
        self._apply_plan = None

    def _mark_dirty(self) -> None:
        """A mutation invalidated the cached fixed-point solution."""
        self._solver.invalidate()

    def _mark_structure(self) -> None:
        """A mutation changed topology/config/assignment/locality state."""
        self._structure_version += 1
        self._solver.invalidate()

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _node(self, name: str) -> SimulatedNode:
        try:
            return self.nodes[name]
        except KeyError:
            raise SimulationError(f"unknown node {name!r}") from None

    def _region(self, region_id: str) -> SimulatedRegion:
        try:
            return self.regions[region_id]
        except KeyError:
            raise SimulationError(f"unknown region {region_id!r}") from None

    def _model_for(self, node: SimulatedNode) -> PerformanceModel:
        if node.hardware not in self._model_cache:
            self._model_cache[node.hardware] = PerformanceModel(node.hardware)
        return self._model_cache[node.hardware]

    def _reindex_region(
        self, region: SimulatedRegion, old_node: str | None, new_node: str | None
    ) -> None:
        """Move a region between index buckets (called from the node setter)."""
        bucket = self._regions_by_node.get(old_node)
        if bucket is not None:
            bucket.pop(region.region_id, None)
        self._regions_by_node.setdefault(new_node, {})[region.region_id] = region
        versions = self._assignment_versions
        versions[old_node] = versions.get(old_node, 0) + 1
        versions[new_node] = versions.get(new_node, 0) + 1
        self._mark_structure()

    def _hosted_count(self, node_name: str) -> int:
        bucket = self._regions_by_node.get(node_name)
        return len(bucket) if bucket else 0

    def _drain_counts(
        self, exclude_name: str
    ) -> tuple[dict[str, int], list[str]]:
        """Per-candidate hosted-region counts for an incremental drain.

        Replicates repeated ``_least_loaded_online_node`` calls: candidates
        are the online nodes (falling back to every other node), in node
        insertion order, and the caller bumps a count after each placement
        instead of rescanning every region per drained region.
        """
        others = [node for node in self.nodes.values() if node.name != exclude_name]
        candidates = [node.name for node in others if node.online] or [
            node.name for node in others
        ]
        counts = {name: self._hosted_count(name) for name in candidates}
        return counts, candidates

    def _advance_node_states(self) -> None:
        changed = False
        for node in self.nodes.values():
            if node.state in (STATE_BOOTING, STATE_RESTARTING):
                if self.clock.now >= node.state_until:
                    node.state = STATE_ONLINE
                    node.state_until = 0.0
                    changed = True
        if changed:
            self._mark_structure()

    def _compaction_background(self) -> dict[str, float]:
        """Per-node background disk bytes/s of the running compactions."""
        return {
            node.name: _compaction_rate(node)
            for node in self.nodes.values()
            if node.pending_compaction_bytes > 0 and node.online
        }

    def _progress_compactions(self, dt: float) -> dict[str, float]:
        """Advance compactions; return per-node background disk bytes/s."""
        background = self._compaction_background()
        for name, rate in background.items():
            node = self.nodes[name]
            done = min(node.pending_compaction_bytes, rate * dt)
            node.pending_compaction_bytes -= done
            if node.pending_compaction_bytes <= 1e-6:
                node.pending_compaction_bytes = 0.0
                for region in self.regions_on(name):
                    region.block_homes = {name}
        return background

    def _apply_tick_results(self, dt: float, ticks: int, results: SolveResult) -> None:
        """Apply one solved (or cached) tick result ``ticks`` times in one pass.

        A plain tick is the one-tick case.  Every *rate* observable
        (throughputs, per-node utilisation, metric sample values) is
        constant across the span, so the per-tick sample list is built once
        and recorded at each tick's end time, as returned by advancing the
        clock ``ticks`` steps -- so the recorded series is byte-identical
        to ``ticks`` individual ticks.  Cumulative counters advance by
        ``rate * dt * ticks`` (a fused multiply instead of ``ticks``
        repeated additions; the difference is ~1e-16 relative, and none at
        all for one tick).

        The first apply of a solution derives an :class:`_ApplyPlan`; every
        later tick or batch that reuses the same solution replays it:
        counter arithmetic plus one metrics call.
        """
        span = dt * ticks
        plan = self._apply_plan
        if plan is not None and plan.results is results:
            # Counter updates go through __dict__ to skip the node-indexing
            # __setattr__ hook (these fields never affect the index).
            for fields, reads, writes, scans in plan.counters:
                fields["reads"] += reads * span
                fields["writes"] += writes * span
                fields["scans"] += scans * span
        else:
            plan = self._apply_plan = self._plan_apply(span, results)
        self.total_ops += plan.total * span

        timestamps = self.clock.advance(dt, ticks)
        self.metrics.record_many_repeated(timestamps, plan.samples)
        if plan.distributions:
            # The same frozen summary object is appended at every timestamp:
            # a window merge over the span adds its integer counts k times,
            # bit-identical to the k per-tick summaries individual ticks
            # would have recorded (see LatencySummary.scale).
            self.metrics.record_distributions_repeated(timestamps, plan.distributions)

    def _plan_apply(self, span: float, results: SolveResult) -> _ApplyPlan:
        """Apply a solution's region terms for one span and plan its replay.

        An insert-bearing solution grows region sizes here; such a plan is
        never replayed (its ``results`` key is cleared).  Node utilisation
        fields and the per-binding throughput map are written here once:
        nothing but a new solution changes them.
        The plan's sample batches hold each tenant's throughput and latency,
        the only series anything reads.
        """
        throughputs, node_results, region_rates, binding_latencies, summaries = results
        plan = _ApplyPlan(results)
        counters = plan.counters
        regions = self.regions
        for region_id, rates in region_rates.items():
            region = regions.get(region_id)
            if region is None:
                raise SimulationError(f"unknown region {region_id!r}")
            get = rates.get
            rmw = get("read_modify_write", 0.0)
            reads = get("read", 0.0) + rmw
            inserts = get("insert", 0.0)
            writes = get("update", 0.0) + inserts + rmw
            scans = get("scan", 0.0)
            fields = region.__dict__
            fields["reads"] += reads * span
            fields["writes"] += writes * span
            fields["scans"] += scans * span
            if inserts:
                fields["size_bytes"] += inserts * span * region.record_size
                plan.results = None
            counters.append((fields, reads, writes, scans))

        samples = []
        total = 0.0
        for name in self.bindings:
            throughput = throughputs.get(name, 0.0)
            latency = binding_latencies.get(name, 0.0)
            self._binding_throughput[name] = throughput
            total += throughput
            entity = f"workload:{name}"
            samples.append((entity, "throughput", throughput))
            samples.append((entity, "latency_ms", latency))
        plan.total = total
        plan.samples = tuple(samples)

        for node in self.nodes.values():
            result = node_results.get(node.name)
            if result is None:
                node.cpu_utilization = 0.0
                node.io_wait = 0.0
                node.memory_utilization = 0.0
            else:
                node.cpu_utilization = min(1.0, result.cpu_utilization)
                node.io_wait = min(1.0, result.io_wait)
                node.memory_utilization = min(1.0, result.memory_utilization)

        if summaries:
            plan.distributions = tuple(
                (f"workload:{name}", "latency_ms", summary)
                for name, summary in summaries.items()
            )
        return plan


class _ApplyPlan:
    """What applying one solution does to the cluster, derived once.

    Keyed on the solution object.  ``EventSolver.reuse`` hands back the
    identical result tuple until a mutator drops it, so an identity match
    means nothing the plan was derived from has changed.  Everything the
    plan holds is a rate, so it replays at any tick length (a trailing
    partial tick reuses the solution at another ``dt``).  ``counters``
    holds each rated region's ``(fields, reads, writes, scans)`` rates,
    ``samples``/``distributions`` the per-tick tenant metric batches.
    """

    __slots__ = ("results", "counters", "total", "samples", "distributions")

    def __init__(self, results: SolveResult) -> None:
        self.results: SolveResult | None = results
        self.counters: list[tuple[dict, float, float, float]] = []
        self.total = 0.0
        self.samples: tuple[tuple[str, str, float], ...] = ()
        self.distributions: tuple[tuple[str, str, object], ...] = ()


def _compaction_rate(node: SimulatedNode) -> float:
    """Disk bytes/s a node's major compaction drains."""
    return node.hardware.disk_mb_per_second * MB * COMPACTION_DISK_SHARE


def _size_weighted_locality(hosted: list[SimulatedRegion]) -> float:
    """Size-weighted locality of a hosted-region list (1.0 when empty)."""
    total = 0.0
    weighted = 0.0
    for region in hosted:
        size = region.size_bytes
        total += size
        weighted += region.locality * size
    if total <= 0:
        return 1.0
    return weighted / total


def _pick_least_loaded(counts: dict[str, int], candidates: list[str]) -> str | None:
    """First candidate with the fewest hosted regions (stable, like min())."""
    best: str | None = None
    best_count = -1
    for name in candidates:
        count = counts[name]
        if best is None or count < best_count:
            best = name
            best_count = count
    return best
