"""Benchmark regenerating Figure 1 (Section 3.4 motivation experiment)."""

from dataclasses import replace

from repro.experiments.figure1 import report, run_figure1
from repro.scenarios.paper import FIGURE1


def test_figure1_strategies(benchmark):
    """Manual-Heterogeneous beats Manual-Homogeneous beats Random (mean)."""
    specs = {name: replace(spec, duration_minutes=6.0) for name, spec in FIGURE1.items()}
    result = benchmark.pedantic(
        run_figure1, kwargs={"specs": specs, "runs": 3}, iterations=1, rounds=1
    )
    print()
    print(report(result))

    random_mean = result.outcomes["random-homogeneous"].mean_total
    homogeneous = result.outcomes["manual-homogeneous"].mean_total
    heterogeneous = result.outcomes["manual-heterogeneous"].mean_total

    # Paper: heterogeneous improves homogeneous by ~35% and more than doubles
    # the random mean.  The simulator reproduces the ordering and a clear gap;
    # exact factors differ (see EXPERIMENTS.md).
    assert heterogeneous > homogeneous > random_mean * 0.95
    assert heterogeneous >= 1.10 * homogeneous
    assert heterogeneous >= 1.30 * random_mean

    # The random strategy's variance is large (placement left to chance).
    totals = result.outcomes["random-homogeneous"].totals
    assert max(totals) - min(totals) > 0.15 * random_mean

    # Workload E (scans) benefits from the dedicated scan node.
    scan_het = result.outcomes["manual-heterogeneous"].workload_mean("workload-E")
    scan_hom = result.outcomes["manual-homogeneous"].workload_mean("workload-E")
    assert scan_het > scan_hom
