"""Benchmark regenerating Figure 4 (Section 6.2 convergence experiment)."""

from dataclasses import replace

from repro.experiments.figure4 import report, run_figure4
from repro.scenarios.paper import FIGURE4


def test_figure4_convergence(benchmark):
    """MeT autonomously converges to Manual-Heterogeneous performance."""
    specs = {name: replace(spec, duration_minutes=18.0) for name, spec in FIGURE4.items()}
    result = benchmark.pedantic(run_figure4, args=(specs,), iterations=1, rounds=1)
    print()
    print(report(result))

    # MeT ends up within 15% of the manually configured heterogeneous cluster
    # and above the homogeneous one.
    assert result.met_matches_heterogeneous(tolerance=0.15)
    assert result.met_final_throughput > result.homogeneous_final_throughput

    # The reconfiguration window shows a dip but the cluster keeps serving
    # requests (incremental reconfiguration preserves availability).
    assert result.reconfiguration_floor > 0.0
    assert result.reconfiguration_floor < result.met_final_throughput

    # The reconfiguration pays off: cumulative average beats the homogeneous
    # strategy over the whole run (paper: within 15 minutes).
    met_ops = result.met.operations_until(result.minutes)
    hom_ops = result.manual_homogeneous.operations_until(result.minutes)
    assert met_ops > 0.9 * hom_ops
