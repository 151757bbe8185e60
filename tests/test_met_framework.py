"""Integration tests: the full MeT loop, its simulator backend, and the baselines."""

from repro.core.backends import SimulatorBackend
from repro.core.classification import AccessPattern, classify_partitions
from repro.core.decision import DecisionMaker, distribution
from repro.core.framework import MeT
from repro.core.interfaces import ClusterBackend
from repro.core.parameters import MeTParameters
from repro.core.profiles import NODE_PROFILES
from repro.elasticity.daemon import HBaseBalancerDaemon
from repro.elasticity.strategies import (
    manual_heterogeneous,
    manual_homogeneous,
    random_homogeneous,
)
from repro.elasticity.autoscaler import AutoscalerAction
from repro.elasticity.tiramola import Tiramola, TiramolaPolicy
from repro.experiments.harness import apply_placement
from repro.monitoring.collector import ClusterSnapshot, NodeSample, PartitionSample
from repro.simulation.cluster import ClusterSimulator
from repro.workloads import CORE_WORKLOADS, materialise_tenants


def make_snapshot(loads, partitions=None, profiles=None):
    nodes = {
        name: NodeSample(
            name=name,
            cpu=load,
            io_wait=load * 0.5,
            profile=(profiles or {}).get(name, "default"),
        )
        for name, load in loads.items()
    }
    return ClusterSnapshot(timestamp=0.0, nodes=nodes, partitions=partitions or {})


class TestDecisionMaker:
    def test_healthy_cluster_yields_no_plan(self):
        maker = DecisionMaker()
        snapshot = make_snapshot({"n1": 0.5, "n2": 0.6})
        assert maker.decide(snapshot) is None

    def test_overloaded_cluster_yields_plan(self):
        maker = DecisionMaker()
        partitions = {
            "p1": PartitionSample("p1", "n1", reads=1000, writes=0, scans=0),
            "p2": PartitionSample("p2", "n2", reads=0, writes=1000, scans=0),
        }
        snapshot = make_snapshot({"n1": 0.95, "n2": 0.4}, partitions)
        plan = maker.decide(snapshot)
        assert plan is not None
        assert plan.initial
        profiles = {target.profile for target in plan.targets}
        assert profiles <= set(NODE_PROFILES)

    def test_underloaded_cluster_removes_a_node(self):
        parameters = MeTParameters(min_nodes=1)
        maker = DecisionMaker(parameters)
        partitions = {
            "p1": PartitionSample("p1", "n1", reads=100, writes=0, scans=0),
            "p2": PartitionSample("p2", "n2", reads=100, writes=0, scans=0),
            "p3": PartitionSample("p3", "n3", reads=100, writes=0, scans=0),
        }
        # First decision consumes the InitialReconfiguration.
        maker.decide(make_snapshot({"n1": 0.1, "n2": 0.1, "n3": 0.1}, partitions))
        plan = maker.decide(make_snapshot({"n1": 0.1, "n2": 0.1, "n3": 0.1}, partitions))
        assert plan is not None
        assert len(plan.nodes_to_remove) == 1

    def test_max_nodes_clamps_additions(self):
        parameters = MeTParameters(max_nodes=2)
        maker = DecisionMaker(parameters)
        partitions = {
            "p1": PartitionSample("p1", "n1", reads=1000, writes=0, scans=0),
        }
        maker.decide(make_snapshot({"n1": 0.99, "n2": 0.99}, partitions))
        plan = maker.decide(make_snapshot({"n1": 0.99, "n2": 0.99}, partitions))
        assert plan is None or not plan.new_nodes

    def test_distribution_covers_every_partition(self):
        partitions = {
            f"p{i}": PartitionSample(f"p{i}", "n1", reads=100 * i, writes=50, scans=0)
            for i in range(8)
        }
        slots = distribution(partitions.values(), cluster_size=3)
        covered = {p for slot in slots for p in slot.partitions}
        assert covered == set(partitions)

    def test_distribution_merges_groups_left_without_a_node(self):
        # Three groups on two nodes: the scan group has the least volume and
        # gets no node; its partition joins the lighter kept group (write).
        partitions = [
            PartitionSample("r", None, reads=300, writes=0, scans=0),
            PartitionSample("w", None, reads=0, writes=200, scans=0),
            PartitionSample("s", None, reads=0, writes=0, scans=100),
        ]
        slots = distribution(partitions, cluster_size=2)
        assert [(slot.profile, set(slot.partitions)) for slot in slots] == [
            ("read", {"r"}),
            ("write", {"w", "s"}),
        ]


class TestSimulatorBackendContract:
    def test_backend_satisfies_protocol(self, simulator):
        backend = SimulatorBackend(simulator)
        assert isinstance(backend, ClusterBackend)

    def test_add_and_remove_node(self, simulator):
        backend = SimulatorBackend(simulator)
        name = backend.add_node(NODE_PROFILES["read"].config, "read")
        assert name in simulator.nodes
        assert not backend.node_is_online(name)
        simulator.run(simulator.boot_seconds + 10)
        assert backend.node_is_online(name)
        assert backend.node_profile(name) == "read"
        backend.remove_node(name)
        assert name not in simulator.nodes

    def test_reconfigure_and_compact(self, simulator):
        backend = SimulatorBackend(simulator)
        nodes = backend.online_node_names()
        simulator.add_region("r1", "w", 1e8, node=nodes[0])
        backend.move_partition("r1", nodes[1])
        assert backend.node_locality(nodes[1]) < 0.5
        backend.major_compact(nodes[1])
        simulator.run(60.0)
        assert backend.node_locality(nodes[1]) == 1.0
        drained = backend.reconfigure_node(nodes[1], NODE_PROFILES["scan"].config, "scan")
        assert "r1" in drained


class TestMeTEndToEnd:
    def _prepared_simulator(self, seed=1):
        simulator = ClusterSimulator()
        nodes = [simulator.add_node() for _ in range(5)]
        expected = materialise_tenants(simulator, CORE_WORKLOADS.values())
        plan = random_homogeneous(expected, nodes, seed=seed)
        apply_placement(simulator, plan)
        return simulator

    def test_met_reconfigures_and_improves_throughput(self):
        simulator = self._prepared_simulator()
        backend = SimulatorBackend(simulator)
        met = MeT(backend, MeTParameters(min_nodes=5, max_nodes=5))
        simulator.run(120.0)
        baseline = simulator.cluster_throughput()
        for _ in range(12 * 18):  # 18 minutes of 5-second ticks
            simulator.tick()
            met.step(simulator.clock.now)
        assert met.actuator.report.plans_applied >= 1
        assert met.log.count(AutoscalerAction.PLAN_COMPLETE) == (
            met.actuator.report.plans_applied
        )
        assert met.actuator.report.nodes_reconfigured >= 1
        profiles = {node.profile_name for node in simulator.nodes.values()}
        assert profiles & set(NODE_PROFILES)
        assert simulator.cluster_throughput() > baseline

    def test_met_respects_cooldown_and_noop_plans(self):
        simulator = self._prepared_simulator(seed=2)
        backend = SimulatorBackend(simulator)
        met = MeT(backend, MeTParameters(min_nodes=5, max_nodes=5))
        for _ in range(12 * 25):
            simulator.tick()
            met.step(simulator.clock.now)
        # After convergence MeT keeps deciding but stops churning the cluster.
        decisions = met.log.count(AutoscalerAction.PLAN) + met.log.count(
            AutoscalerAction.HEALTHY
        )
        assert decisions >= met.actuator.report.plans_applied


class TestTiramola:
    def _overloaded_backend(self):
        simulator = ClusterSimulator()
        nodes = [simulator.add_node() for _ in range(2)]
        expected = materialise_tenants(simulator, CORE_WORKLOADS.values())
        plan = manual_homogeneous(expected, nodes)
        apply_placement(simulator, plan)
        return simulator, SimulatorBackend(simulator)

    def test_adds_node_under_load(self):
        simulator, backend = self._overloaded_backend()
        policy = TiramolaPolicy(decision_samples=2, cooldown_seconds=0.0, min_nodes=2)
        tiramola = Tiramola(backend, policy)
        for _ in range(12 * 6):
            simulator.tick()
            tiramola.step(simulator.clock.now)
        assert len(simulator.nodes) > 2
        assert tiramola.log.events

    def test_removes_only_when_all_nodes_idle(self):
        simulator = ClusterSimulator()
        for _ in range(3):
            simulator.add_node()
        backend = SimulatorBackend(simulator)
        policy = TiramolaPolicy(decision_samples=2, cooldown_seconds=0.0, min_nodes=1)
        tiramola = Tiramola(backend, policy)
        for _ in range(12 * 5):
            simulator.tick()
            tiramola.step(simulator.clock.now)
        # An idle cluster shrinks (every node below the low threshold).
        assert len(simulator.nodes) < 3


class ScriptedBackend:
    """Minimal metrics backend with scripted per-node loads.

    Lets the Tiramola regression tests control exactly what each sample
    observes, including nodes vanishing mid-decision-window.
    """

    def __init__(self, loads: dict[str, float]) -> None:
        self.loads = dict(loads)
        self.added: list[str] = []
        self.removed: list[str] = []

    def online_node_names(self):
        return sorted(self.loads)

    def node_system_metrics(self, name):
        return {"cpu": self.loads[name], "io_wait": 0.0, "memory": 0.5}

    def add_node(self, config, profile_name):
        name = f"auto-{len(self.added) + 1}"
        self.added.append(name)
        self.loads[name] = 0.0
        return name

    def remove_node(self, name):
        self.removed.append(name)
        self.loads.pop(name)


class TestTiramolaFaultWindows:
    """Regression tests for the fault-window sampling bugs (both failed on
    the pre-fix controller)."""

    def test_crashed_node_samples_do_not_suppress_an_add(self):
        """Two dead idle nodes used to dilute the overload quorum below the
        add threshold; offline nodes must be dropped at decision time."""
        backend = ScriptedBackend({"h1": 0.95, "d1": 0.05, "d2": 0.05})
        policy = TiramolaPolicy(
            decision_samples=4, monitor_period_seconds=30.0, cooldown_seconds=0.0
        )
        tiramola = Tiramola(backend, policy)
        tiramola.step(30.0)
        tiramola.step(60.0)
        # Both idle nodes crash mid-window; their samples linger.
        del backend.loads["d1"]
        del backend.loads["d2"]
        tiramola.step(90.0)
        tiramola.step(120.0)
        # The surviving node is overloaded: 1/1 >= quorum. Pre-fix the two
        # ghosts made it 1/3 < 0.5 and the needed ADD never happened.
        assert backend.added, "crashed nodes suppressed a needed ADD"

    def test_crashed_nodes_do_not_licence_removing_the_last_healthy_node(self):
        """`online` used to count dead nodes, so an idle 1-node cluster
        looked like 3 nodes and the min_nodes floor did not hold.  Driven
        through the real simulator backend via fail_node."""
        simulator = ClusterSimulator()
        names = [simulator.add_node() for _ in range(3)]
        backend = SimulatorBackend(simulator)
        policy = TiramolaPolicy(
            decision_samples=4, monitor_period_seconds=30.0,
            cooldown_seconds=0.0, min_nodes=1,
        )
        tiramola = Tiramola(backend, policy)
        tiramola.step(30.0)
        tiramola.step(60.0)
        simulator.fail_node(names[0])
        simulator.fail_node(names[1])
        tiramola.step(90.0)
        tiramola.step(120.0)
        # Pre-fix: online looked like 3 > min_nodes and every load was idle,
        # so the one surviving node was removed, leaving an empty cluster.
        assert len(simulator.nodes) == 1
        assert tiramola.log.count(AutoscalerAction.REMOVE_NODE) == 0

    def test_cooldown_does_not_inflate_the_decision_window(self):
        """Samples taken during cooldown used to accumulate unboundedly, so
        the first post-cooldown decision averaged the whole cooldown
        (mostly pre-settle load) and missed the scale-in."""
        backend = ScriptedBackend({"n1": 0.95, "n2": 0.95})
        policy = TiramolaPolicy(
            decision_samples=2, monitor_period_seconds=30.0,
            cooldown_seconds=300.0, min_nodes=1,
        )
        tiramola = Tiramola(backend, policy)
        tiramola.step(30.0)
        tiramola.step(60.0)  # decision: overloaded 2/2 -> ADD, cooldown starts
        assert backend.added
        # Pre-settle load persists deep into the cooldown...
        for t in (90.0, 120.0, 150.0, 180.0, 210.0, 240.0, 270.0):
            tiramola.step(t)
            for values in tiramola._samples.values():
                assert len(values) <= policy.decision_samples, (
                    "cooldown grew the window past decision_samples"
                )
        # ...then the add settles things and the cluster goes idle.
        for name in backend.loads:
            backend.loads[name] = 0.05
        tiramola.step(300.0)
        tiramola.step(330.0)
        tiramola.step(360.0)  # cooldown over; window = freshest samples only
        assert backend.removed, (
            "stale pre-settle samples suppressed the post-cooldown scale-in"
        )


class TestActuatorCrashTolerance:
    """A node crashing mid-plan must not wedge or abort the actuator."""

    def _met_with_plan(self):
        simulator = ClusterSimulator()
        nodes = [simulator.add_node() for _ in range(3)]
        expected = materialise_tenants(simulator, CORE_WORKLOADS.values())
        plan = manual_homogeneous(expected, nodes)
        apply_placement(simulator, plan)
        return simulator, SimulatorBackend(simulator), nodes

    def test_restart_target_crashing_is_skipped(self):
        from repro.core.actuator import Actuator, ActuatorPhase
        from repro.core.decision import ReconfigurationPlan
        from repro.core.output import NodeTarget

        simulator, backend, nodes = self._met_with_plan()
        actuator = Actuator(backend)
        plan = ReconfigurationPlan(
            timestamp=0.0,
            initial=False,
            targets=[
                NodeTarget(node=nodes[0], profile="read", needs_restart=True),
                NodeTarget(node=nodes[1], profile="write", needs_restart=True),
            ],
        )
        assert actuator.submit(plan)
        # The first target crashes before the actuator reaches it.
        simulator.fail_node(nodes[0])
        for _ in range(40):
            simulator.tick()
            actuator.step()
            if actuator.phase is ActuatorPhase.IDLE:
                break
        assert actuator.phase is ActuatorPhase.IDLE, "actuator wedged on a ghost"
        # Only the surviving target was restarted.
        assert actuator.report.nodes_reconfigured == 1

    def test_provisioned_node_crashing_while_booting_is_abandoned(self):
        from repro.core.actuator import Actuator, ActuatorPhase
        from repro.core.decision import ReconfigurationPlan
        from repro.core.output import NodeTarget

        simulator, backend, _ = self._met_with_plan()
        actuator = Actuator(backend)
        placeholder = "<new-node-1>"
        plan = ReconfigurationPlan(
            timestamp=0.0,
            initial=False,
            targets=[NodeTarget(node=placeholder, profile="read")],
            new_nodes=[placeholder],
        )
        assert actuator.submit(plan)
        assert actuator.phase is ActuatorPhase.PROVISIONING
        # The freshly provisioned VM dies while still booting.
        real_name = next(iter(actuator._inflight.placeholder_map.values()))
        simulator.fail_node(real_name)
        for _ in range(40):
            simulator.tick()
            actuator.step()
            if actuator.phase is ActuatorPhase.IDLE:
                break
        assert actuator.phase is ActuatorPhase.IDLE, (
            "actuator waited forever for a node that crashed while booting"
        )

    def test_node_crashing_during_its_restart_is_abandoned(self):
        from repro.core.actuator import Actuator, ActuatorPhase
        from repro.core.decision import ReconfigurationPlan
        from repro.core.output import NodeTarget

        simulator, backend, nodes = self._met_with_plan()
        actuator = Actuator(backend)
        plan = ReconfigurationPlan(
            timestamp=0.0,
            initial=False,
            targets=[NodeTarget(node=nodes[0], profile="read", needs_restart=True)],
        )
        assert actuator.submit(plan)
        actuator.step()  # issues the restart
        assert actuator.phase is ActuatorPhase.WAITING_RESTART
        simulator.fail_node(nodes[0])  # dies while restarting
        for _ in range(40):
            simulator.tick()
            actuator.step()
            if actuator.phase is ActuatorPhase.IDLE:
                break
        assert actuator.phase is ActuatorPhase.IDLE, (
            "actuator waited forever for a node that will never come back"
        )


class TestStrategies:
    def _expected(self):
        simulator = ClusterSimulator()
        for _ in range(5):
            simulator.add_node()
        expected = materialise_tenants(simulator, CORE_WORKLOADS.values())
        return expected, list(simulator.nodes)

    def test_plans_cover_all_partitions(self):
        expected, nodes = self._expected()
        ids = [p.partition_id for p in expected]
        for plan in (
            random_homogeneous(expected, nodes, seed=0),
            manual_homogeneous(expected, nodes),
            manual_heterogeneous(expected, nodes),
        ):
            plan.validate(ids, nodes)
            assert set(plan.node_configs) == set(nodes)

    def test_heterogeneous_plan_uses_table1_profiles(self):
        expected, nodes = self._expected()
        plan = manual_heterogeneous(expected, nodes)
        assert set(plan.node_profiles.values()) <= set(NODE_PROFILES) | {"default"}
        assert "scan" in plan.node_profiles.values()
        assert "write" in plan.node_profiles.values()

    def test_homogeneous_plan_disperses_workload_partitions(self):
        expected, nodes = self._expected()
        plan = manual_homogeneous(expected, nodes)
        c_nodes = {plan.assignment[f"C:part-{i}"] for i in range(4)}
        assert len(c_nodes) >= 3

    def test_partition_workload_classification(self):
        read_heavy = PartitionSample("p", None, reads=90, writes=10, scans=0)
        assert classify_partitions([read_heavy]) == {AccessPattern.READ: [read_heavy]}
        assert read_heavy.total_requests == 100

    def test_random_plans_differ_across_seeds(self):
        expected, nodes = self._expected()
        a = random_homogeneous(expected, nodes, seed=0).assignment
        b = random_homogeneous(expected, nodes, seed=1).assignment
        assert a != b


class TestBalancerDaemon:
    def test_daemon_evens_region_counts(self, simulator):
        nodes = list(simulator.nodes)
        for index in range(6):
            simulator.add_region(f"r{index}", "w", 1e8, node=nodes[0])
        backend = SimulatorBackend(simulator)
        daemon = HBaseBalancerDaemon(backend, period_seconds=0.0, seed=0)
        moves = daemon.balance()
        assert moves > 0
        counts = [len(simulator.regions_on(node)) for node in nodes]
        assert max(counts) - min(counts) <= 1
