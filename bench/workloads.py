"""The benchmark's workloads: what one pass runs and how each op is checked.

An *op* is one unit of timed work; a *pass* is a fixed batch of ops.  A
workload builds its inputs in ``__init__`` -- the part ``setup_s`` times,
together with the imports it needs -- and ``run_pass()`` runs one pass and
returns an :class:`Op` per op.  Each op carries a digest of its output so
the runner can check that every pass computes the same thing.

Program modules are imported inside each constructor, so a set-up probe
for one workload pays only for the import graph that workload uses.

Every workload runs on the scenario runner's default kernel and names no
kernel of its own.  Sizes: ``full`` is what the benchmark measures,
``quick`` is the smoke run, ``tiny`` is the self-test's one-op run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = ("full", "quick", "tiny")
CONTROLLERS = ("met", "tiramola", "planner")


@dataclass
class Op:
    """One timed unit of work and what it produced.

    ``digest`` is ``None`` when the op raised; ``error`` is non-empty when
    the op failed a check of its own (a raise, a golden mismatch, a
    non-positive operation count).  Cross-pass checks happen in the runner.
    """

    name: str
    seconds: float
    sim_minutes: float
    digest: str | None
    error: str = ""
    controller: str = ""
    violation_min: float = 0.0
    cost: float = 0.0


@dataclass
class Pass:
    """One pass: its ops, its wall time and how many processes ran it."""

    ops: list[Op]
    wall: float
    workers: int = 1

    @property
    def sim_minutes(self) -> float:
        return sum(op.sim_minutes for op in self.ops)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Catalog:
    """Every canned scenario under every controller, at native size.

    Seed 0 runs the committed specs and checks each goldened trace against
    ``tests/golden/`` byte for byte; any other seed reseeds every spec with
    ``derive_seed(seed, name)``, which leaves only the determinism checks.
    """

    name = "catalog"
    #: The cheapest scenario (10 simulated minutes, 3 nodes), for ``tiny``.
    TINY = ("tpcc_steady", "met")

    def __init__(self, seed: int, size: str = "full") -> None:
        from repro.campaign.grid import derive_seed
        from repro.scenarios import runner, trace
        from repro.scenarios.catalog import CANNED_SCENARIOS
        from repro.sla import scorecard

        # Calls go through module attributes so the tracer's patches apply.
        self._runner, self._trace, self._scorecard = runner, trace, scorecard
        specs = {
            name: spec if seed == 0 else replace(spec, seed=derive_seed(seed, name))
            for name, spec in sorted(CANNED_SCENARIOS.items())
        }
        combos = [(name, controller) for name in specs for controller in CONTROLLERS]
        if size == "tiny":
            combos = [self.TINY]
        self.combos = [(specs[name], controller) for name, controller in combos]
        self.goldens: dict[tuple[str, str], bytes] = {}
        if seed == 0:
            golden_dir = ROOT / "tests" / "golden"
            for combo in trace.golden_combos():
                if combo in combos:
                    self.goldens[combo] = (golden_dir / trace.golden_name(*combo)).read_bytes()

    def run_pass(self) -> Pass:
        ops = []
        start = time.perf_counter()
        for spec, controller in self.combos:
            ops.append(self._op(spec, controller))
        return Pass(ops, time.perf_counter() - start)

    def _op(self, spec, controller: str) -> Op:
        name = f"{spec.name}:{controller}"
        start = time.perf_counter()
        try:
            result = self._runner.run_scenario(spec, controller=controller, keep_simulator=False)
            text = self._trace.trace_to_json(self._trace.result_trace(result)).encode()
            row = self._scorecard.scorecard_row(result)
        except Exception as error:  # a raise is a failed op, never a crashed benchmark
            return Op(name, time.perf_counter() - start, spec.duration_minutes, None, repr(error))
        seconds = time.perf_counter() - start
        golden = self.goldens.get((spec.name, controller))
        error = "" if golden is None or golden == text else "trace differs from the committed golden"
        return Op(
            name, seconds, spec.duration_minutes, _digest(text), error,
            controller, row.violation_minutes, row.cost,
        )


class Campaign:
    """A campaign grid of scaled tenants fanned out over a process pool.

    Six scenarios x three controllers x ``ScaleSpec("x8", tenant_copies=8)``
    x two seeds, with ``master_seed`` set to the benchmark seed.  Op times
    come from the campaign's profile sidecar; an op's digest is its line in
    the results store, so equal digests mean byte-identical stores.
    """

    name = "campaign_x8"
    SCENARIOS = ("diurnal", "flash_crowd", "data_growth", "node_fault", "tpcc_order_rush", "mixed_tenancy")

    def __init__(self, seed: int, size: str = "full") -> None:
        from repro.campaign import grid, runner, store
        from repro.scenarios.catalog import CANNED_SCENARIOS

        self._run_campaign, self._store = runner.run_campaign, store.ResultsStore
        scenarios, controllers, copies, seeds = self.SCENARIOS, CONTROLLERS, 8, 2
        if size == "quick":
            seeds = 1
        elif size == "tiny":
            scenarios, controllers, copies, seeds = ("flash_crowd",), ("met",), 2, 1
        self.grid = grid.CampaignGrid(
            scenarios=tuple(CANNED_SCENARIOS[name] for name in scenarios),
            controllers=controllers,
            scales=(grid.ScaleSpec(f"x{copies}", tenant_copies=copies),),
            seeds=seeds,
            master_seed=seed,
        )
        self.cells = self.grid.cells()
        self.minutes = {cell.cell_id: self.grid.spec_for(cell).duration_minutes for cell in self.cells}
        self.workers = min(2, os.cpu_count() or 1)
        #: Where each pass's temporary store and profile sidecar live.
        self.scratch = ROOT / "bench" / "results"

    def run_pass(self, workers: int | None = None) -> Pass:
        workers = self.workers if workers is None else workers
        self.scratch.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=self.scratch, prefix="campaign-") as tmp:
            store_path, profile_path = Path(tmp) / "store.jsonl", Path(tmp) / "profile.jsonl"
            start = time.perf_counter()
            try:
                self._run_campaign(self.grid, self._store(store_path), workers=workers, profile_path=profile_path)
            except Exception as error:  # every cell of a pass that raised has failed
                wall = time.perf_counter() - start
                ops = [Op(cell.cell_id, 0.0, self.minutes[cell.cell_id], None, repr(error)) for cell in self.cells]
                return Pass(ops, wall, workers)
            wall = time.perf_counter() - start
            lines = store_path.read_bytes().splitlines()
            profile = [json.loads(line) for line in profile_path.read_text().splitlines()]
        seconds = {row["cell"]: row["seconds"] for row in profile}
        records = {}
        for line in lines:
            record = json.loads(line)
            records[record["cell"]] = (line, record)
        ops = []
        for cell in self.cells:
            cell_id = cell.cell_id
            if cell_id not in records:
                ops.append(Op(cell_id, 0.0, self.minutes[cell_id], None, "cell missing from the results store"))
                continue
            line, record = records[cell_id]
            ops.append(
                Op(
                    cell_id, seconds[cell_id], self.minutes[cell_id], _digest(line), "",
                    record["controller"], record["violation_minutes"], record["cost"],
                )
            )
        return Pass(ops, wall, workers)


#: Operation mixes cycled across synthetic tenants: read-heavy,
#: update-heavy, scan and insert tenants touch every cost-model path.
MIXES: tuple[dict[str, float], ...] = (
    {"read": 0.95, "update": 0.05},
    {"read": 0.5, "update": 0.5},
    {"read": 0.95, "scan": 0.05},
    {"read": 0.9, "insert": 0.1},
    {"scan": 0.95, "insert": 0.05},
    {"read": 0.5, "read_modify_write": 0.5},
    {"read": 0.7, "update": 0.2, "scan": 0.1},
    {"update": 0.6, "insert": 0.4},
)

#: (nodes, regions, tenants) of the synthetic cluster per size.
CLUSTERS = {"full": (200, 2000, 12), "quick": (200, 2000, 12), "tiny": (8, 80, 4)}


class Synthetic:
    """A generated cluster driven by the experiment harness, no controller.

    The cluster is built through the simulator's public API from a
    description drawn from the seed: region sizes, client threads, scan
    lengths and which tenant gets which mix.  ``steady`` turns inserts into
    updates.  Inserts grow regions every tick, so with them every tick is a
    real solve; without them the cluster is quiescent and the harness
    fast-forwards almost every tick.  One op builds the cluster and runs
    ``ExperimentHarness(sample_every_seconds=60).run_for(duration)`` in a
    single call: chained short ``run_for`` calls would re-merge the whole
    run's distributions each time, a cost users do not pay.
    """

    def __init__(self, seed: int, size: str = "full") -> None:
        from repro.experiments.harness import ExperimentHarness
        from repro.scenarios import runner
        from repro.simulation.cluster import ClusterSimulator
        from repro.simulation.workload import WorkloadBinding

        self._harness, self._simulator, self._binding = ExperimentHarness, ClusterSimulator, WorkloadBinding
        # The simulator's own default kernel is not the one scenarios run on;
        # pass the scenario runner's default rather than naming a kernel, and
        # nothing once a single kernel remains and the constant is gone.
        kernel = getattr(runner, "DEFAULT_KERNEL", None)
        self._simulator_options = {} if kernel is None else {"kernel": kernel}
        self.duration = self.DURATIONS[size]
        nodes, regions, tenants = CLUSTERS[size]
        rng = random.Random(f"{self.name}:{seed}")
        rotation = rng.randrange(len(MIXES))
        self.nodes = nodes
        self.tenants = []
        self.regions = []
        per_tenant = regions // tenants
        for tenant in range(tenants):
            mix = dict(MIXES[(tenant + rotation) % len(MIXES)])
            if self.steady and "insert" in mix:
                mix["update"] = mix.get("update", 0.0) + mix.pop("insert")
            name = f"tenant-{tenant}"
            count = per_tenant if tenant < tenants - 1 else regions - per_tenant * (tenants - 1)
            scan_length = 50 + 10 * rng.randrange(3)
            ids = []
            for index in range(count):
                ids.append(f"t{tenant}:r{index}")
                self.regions.append(
                    (ids[-1], name, 2e8 + 1e7 * rng.randrange(23), len(self.regions) % nodes, scan_length)
                )
            weight = 1.0 / count
            weights = {region_id: weight for region_id in ids}
            weights[ids[-1]] = 1.0 - weight * (count - 1)
            self.tenants.append((name, 40 + 5 * tenant + rng.randrange(5), mix, weights, scan_length))

    def build(self):
        sim = self._simulator(**self._simulator_options)
        node_names = [sim.add_node() for _ in range(self.nodes)]
        for region_id, tenant, size_bytes, node, scan_length in self.regions:
            sim.add_region(
                region_id, workload=tenant, size_bytes=size_bytes, node=node_names[node], scan_length=scan_length
            )
        for name, threads, mix, weights, scan_length in self.tenants:
            sim.attach_workload(
                self._binding(name=name, threads=threads, op_mix=mix, region_weights=weights, scan_length=scan_length)
            )
        return sim

    def run_pass(self) -> Pass:
        minutes = self.duration / 60.0
        start = time.perf_counter()
        try:
            sim = self.build()
            run = self._harness(sim, sample_every_seconds=60.0).run_for(self.duration)
            # Freed by reference counting, as batch callers free theirs, so peak
            # memory does not depend on how many passes ran before.
            sim.dispose()
        except Exception as error:  # a raise is a failed op, never a crashed benchmark
            seconds = time.perf_counter() - start
            return Pass([Op(self.name, seconds, minutes, None, repr(error))], seconds)
        seconds = time.perf_counter() - start
        output = {
            "series": [[p.minute, p.throughput, p.cumulative_ops, p.nodes] for p in run.series],
            "tenant_series": {
                name: [[p.minute, p.throughput, p.latency_ms, p.p95_ms, p.p99_ms] for p in points]
                for name, points in sorted(run.tenant_series.items())
            },
            "total_operations": run.total_operations,
        }
        total = run.total_operations
        error = "" if math.isfinite(total) and total > 0 else f"total_operations is {total!r}"
        digest = _digest(json.dumps(output, sort_keys=True).encode())
        return Pass([Op(self.name, seconds, minutes, digest, error)], seconds)


class SolveXL(Synthetic):
    """200 nodes, 2000 regions, 12 tenants with inserts: every tick is a real solve."""

    name = "solve_xl"
    steady = False
    #: Simulated seconds one op covers, per size.
    DURATIONS = {"full": 600.0, "quick": 120.0, "tiny": 60.0}


class SteadyXL(Synthetic):
    """The same cluster without inserts: almost every tick is fast-forwarded."""

    name = "steady_xl"
    steady = True
    DURATIONS = {"full": 10800.0, "quick": 1800.0, "tiny": 600.0}


WORKLOADS = {workload.name: workload for workload in (Catalog, Campaign, SolveXL, SteadyXL)}
