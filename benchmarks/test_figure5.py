"""Benchmark regenerating Figure 5 (cumulative throughput, MeT vs tiramola)."""

from repro.experiments.figure5 import Figure5Result, report


def test_figure5_cumulative_throughput(benchmark, figure6_result):
    """MeT completes more operations than tiramola during phase 1."""
    # Phase 1 of the shared Figure 6 run is the Figure 5 experiment.
    result = benchmark.pedantic(
        Figure5Result,
        kwargs={
            "met": figure6_result.met,
            "tiramola": figure6_result.tiramola,
            "minutes": figure6_result.phase1_minutes,
        },
        iterations=1,
        rounds=1,
    )
    print()
    print(report(result))

    # Paper: ~706,000 extra operations, a ~31% increase.  The simulator
    # reproduces a clear advantage for MeT.
    assert result.improvement >= 1.05
    assert result.extra_operations > 0
    # The advantage materialises despite the initial reconfiguration cost.
    assert result.met_total_operations > 0
