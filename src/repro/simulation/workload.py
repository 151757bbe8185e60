"""Closed-loop client populations driving the simulated cluster.

Each :class:`WorkloadBinding` models one tenant (one YCSB workload or one
TPC-C client pool): a fixed number of client threads issuing operations with
zero think time against a set of data partitions, optionally capped at a
target throughput (the paper caps Workload D at 1 500 ops/s).

The achievable throughput of a binding is ``threads / latency`` where the
latency is the request-weighted average latency observed on the nodes hosting
its partitions, plus a fixed client-side overhead (network round trip and
client processing).  The cluster simulator solves the resulting fixed point
every tick.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simulation.perfmodel import OP_TYPES

#: Client-side latency per operation (network RTT + YCSB client processing),
#: in milliseconds.  Bounds single-thread throughput even on an idle cluster.
CLIENT_OVERHEAD_MS = 1.2


@dataclass
class WorkloadBinding:
    """A closed-loop client population bound to a set of regions.

    Attributes:
        name: tenant name, e.g. ``"workload-a"`` or ``"tpcc"``.
        threads: number of client threads (each issues one op at a time).
        op_mix: fractions per operation type; must sum to 1.
        region_weights: fraction of requests addressed to each region; must
            sum to 1 across the binding's regions.
        target_ops_per_second: optional throughput cap.
        record_size: value size in bytes.
        scan_length: records returned per scan operation.
    """

    name: str
    threads: int
    op_mix: dict[str, float]
    region_weights: dict[str, float]
    target_ops_per_second: float | None = None
    record_size: int = 1024
    scan_length: int = 50

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check mix and weight invariants."""
        if self.threads <= 0:
            raise ValueError(f"threads must be positive, got {self.threads!r}")
        unknown = set(self.op_mix) - set(OP_TYPES)
        if unknown:
            raise ValueError(f"unknown operation types in mix: {sorted(unknown)}")
        mix_total = sum(self.op_mix.values())
        if abs(mix_total - 1.0) > 1e-6:
            raise ValueError(f"op mix must sum to 1, got {mix_total!r}")
        if not self.region_weights:
            raise ValueError("a workload binding needs at least one region")
        weight_total = sum(self.region_weights.values())
        if abs(weight_total - 1.0) > 1e-6:
            raise ValueError(f"region weights must sum to 1, got {weight_total!r}")
        if any(weight < 0 for weight in self.region_weights.values()):
            raise ValueError("region weights must be non-negative")

    # ------------------------------------------------------------------ #
    # closed-loop throughput
    # ------------------------------------------------------------------ #
    def max_throughput(self, mean_latency_ms: float) -> float:
        """Throughput achievable by ``threads`` clients at the given latency."""
        latency = max(mean_latency_ms, 0.01) + CLIENT_OVERHEAD_MS
        throughput = self.threads * 1000.0 / latency
        if self.target_ops_per_second is not None:
            throughput = min(throughput, self.target_ops_per_second)
        return throughput

    def unit_rates(self) -> list[tuple[str, list[tuple[str, float]]]]:
        """Per-region ``(op, rate)`` pairs at unit (1 op/s) throughput.

        The split is linear in the throughput: at ``t`` ops/s region ``r``
        sees ``t * weight[r] * mix[op]`` of each op with a positive mix
        share, i.e. these rates scaled by ``t``.  The simulator's solver
        precomputes them once per solve context and scales them in place
        on every fixed-point iteration.
        """
        return [
            (
                region_id,
                [
                    (op, weight * fraction)
                    for op, fraction in self.op_mix.items()
                    if fraction > 0
                ],
            )
            for region_id, weight in self.region_weights.items()
        ]

    def regions(self) -> list[str]:
        """Region ids this binding addresses."""
        return list(self.region_weights)
