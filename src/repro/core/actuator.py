"""The Actuator component (paper Sections 4.3 and 5).

The Actuator carries out the Decision Maker's plan against the cluster
backend:

* it provisions new virtual machines (through the IaaS) and waits for them
  to boot before assigning them partitions;
* it applies heterogeneous configurations with the paper's *incremental*
  strategy -- one RegionServer at a time: drain its Regions to the not yet
  reconfigured nodes, restart it with the new configuration, move its target
  Regions onto it, and trigger a major compaction when the resulting data
  locality falls below the per-profile threshold (70% for write-profiled
  nodes, 90% for the others);
* it finally performs the remaining partition moves and decommissions
  retired nodes.

Because restarts and VM boots take simulated time, the Actuator is a small
state machine advanced by :meth:`Actuator.step` on every tick.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.decision import ReconfigurationPlan
from repro.core.interfaces import ClusterBackend
from repro.core.output import NodeTarget
from repro.core.parameters import MeTParameters
from repro.core.profiles import config_for


class ActuatorPhase(str, enum.Enum):
    """Phases of plan execution."""

    IDLE = "idle"
    PROVISIONING = "provisioning"
    RECONFIGURING = "reconfiguring"
    WAITING_RESTART = "waiting_restart"
    MOVING = "moving"
    REMOVING = "removing"


@dataclass
class ActuatorReport:
    """Counters describing what the actuator did (exposed for experiments)."""

    plans_applied: int = 0
    nodes_added: int = 0
    nodes_removed: int = 0
    nodes_reconfigured: int = 0
    partitions_moved: int = 0
    compactions_triggered: int = 0
    last_plan_started: float | None = None
    last_plan_finished: float | None = None


@dataclass
class _InFlightPlan:
    """Mutable execution state of the plan currently being applied."""

    plan: ReconfigurationPlan
    placeholder_map: dict[str, str] = field(default_factory=dict)
    pending_restarts: list[NodeTarget] = field(default_factory=list)
    restarting: NodeTarget | None = None
    pending_moves: list[NodeTarget] = field(default_factory=list)
    pending_removals: list[str] = field(default_factory=list)


class Actuator:
    """Applies reconfiguration plans to a cluster backend over time."""

    def __init__(
        self,
        backend: ClusterBackend,
        parameters: MeTParameters | None = None,
    ) -> None:
        self.backend = backend
        self.parameters = (parameters or MeTParameters()).validate()
        self.report = ActuatorReport()
        self.phase = ActuatorPhase.IDLE
        self._inflight: _InFlightPlan | None = None

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    @property
    def busy(self) -> bool:
        """Whether a plan is currently being applied."""
        return self.phase is not ActuatorPhase.IDLE

    def submit(self, plan: ReconfigurationPlan, now: float) -> bool:
        """Start applying a plan; returns False if one is already in flight."""
        if self.busy:
            return False
        if plan.is_noop():
            return False
        state = _InFlightPlan(plan=plan)
        # Provision new nodes immediately with the profile they will serve, so
        # no later restart is needed for them.
        for target in plan.targets:
            if target.node in plan.new_nodes:
                config = config_for(target.profile)
                real_name = self.backend.add_node(config, target.profile)
                state.placeholder_map[target.node] = real_name
                self.report.nodes_added += 1
        state.pending_restarts = [
            t for t in plan.targets if t.needs_restart and t.node not in plan.new_nodes
        ]
        state.pending_moves = [
            t for t in plan.targets if not t.needs_restart or t.node in plan.new_nodes
        ]
        state.pending_removals = list(plan.nodes_to_remove)
        self._inflight = state
        self.report.last_plan_started = now
        self.phase = (
            ActuatorPhase.PROVISIONING if plan.new_nodes else ActuatorPhase.RECONFIGURING
        )
        return True

    def step(self, now: float) -> None:
        """Advance the in-flight plan as far as the cluster state allows."""
        if not self.busy or self._inflight is None:
            return
        if self.phase is ActuatorPhase.PROVISIONING:
            self._step_provisioning()
        if self.phase is ActuatorPhase.RECONFIGURING:
            self._step_reconfiguring()
        if self.phase is ActuatorPhase.WAITING_RESTART:
            self._step_waiting_restart()
        if self.phase is ActuatorPhase.MOVING:
            self._step_moving()
        if self.phase is ActuatorPhase.REMOVING:
            self._step_removing(now)

    # ------------------------------------------------------------------ #
    # phase handlers
    # ------------------------------------------------------------------ #
    def _step_provisioning(self) -> None:
        state = self._inflight
        assert state is not None
        for real in state.placeholder_map.values():
            # A provisioned node that crashed while booting will never come
            # online; waiting for it would wedge the actuator.  Its moves
            # are dropped later by the same existence check in _step_moving.
            if self._node_exists(real) and not self.backend.node_is_online(real):
                return
        self.phase = ActuatorPhase.RECONFIGURING

    def _step_reconfiguring(self) -> None:
        state = self._inflight
        assert state is not None
        while state.restarting is None:
            if not state.pending_restarts:
                self.phase = ActuatorPhase.MOVING
                return
            target = state.pending_restarts.pop(0)
            if not self._node_exists(target.node):
                # The node crashed after the plan was decided; there is
                # nothing left to restart.  Skip rather than abort the plan.
                continue
            config = config_for(target.profile)
            self.backend.reconfigure_node(target.node, config, target.profile)
            state.restarting = target
            self.phase = ActuatorPhase.WAITING_RESTART

    def _step_waiting_restart(self) -> None:
        state = self._inflight
        assert state is not None
        target = state.restarting
        assert target is not None
        if not self._node_exists(target.node):
            # The restarting node crashed and will never come back online;
            # waiting for it would wedge the actuator for the rest of the
            # run.  Abandon this target and continue with the plan.
            state.restarting = None
            self.phase = ActuatorPhase.RECONFIGURING
            return
        if not self.backend.node_is_online(target.node):
            return
        self._apply_target(target)
        # Counted on completion: a restart abandoned because its node
        # crashed mid-restart was not a reconfiguration.
        self.report.nodes_reconfigured += 1
        state.restarting = None
        self.phase = ActuatorPhase.RECONFIGURING

    def _step_moving(self) -> None:
        state = self._inflight
        assert state is not None
        while state.pending_moves:
            target = state.pending_moves.pop(0)
            node = state.placeholder_map.get(target.node, target.node)
            if not self._node_exists(node):
                # Move destination crashed mid-plan: drop the move (its
                # partitions were already reassigned by the failure path).
                continue
            if not self.backend.node_is_online(node):
                state.pending_moves.insert(0, target)
                return
            self._apply_target(target, resolved_node=node)
        self.phase = ActuatorPhase.REMOVING

    def _step_removing(self, now: float) -> None:
        state = self._inflight
        assert state is not None
        for node in state.pending_removals:
            if not self._node_exists(node):
                # Crashed before we could decommission it: already gone.
                continue
            self.backend.remove_node(node)
            self.report.nodes_removed += 1
        state.pending_removals = []
        self.report.plans_applied += 1
        self.report.last_plan_finished = now
        self.phase = ActuatorPhase.IDLE
        self._inflight = None

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _node_exists(self, name: str) -> bool:
        """Whether the node is still part of the cluster (it may have
        crashed since the plan was decided)."""
        return name in self.backend.node_names()

    def _apply_target(self, target: NodeTarget, resolved_node: str | None = None) -> None:
        """Move a node's target partitions onto it and restore locality."""
        node = resolved_node or target.node
        for partition in target.partition_list:
            self.backend.move_partition(partition, node)
            self.report.partitions_moved += 1
        threshold = (
            self.parameters.write_locality_threshold
            if target.profile == "write"
            else self.parameters.read_locality_threshold
        )
        if self.backend.node_locality(node) < threshold:
            self.backend.major_compact(node)
            self.report.compactions_triggered += 1
