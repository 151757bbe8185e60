"""Benchmark regenerating Figure 5 (cumulative throughput, MeT vs tiramola)."""

from repro.experiments.figure5 import report


def test_figure5_cumulative_throughput(benchmark, figure6_result):
    """MeT completes more operations than tiramola during phase 1."""
    # Figure 5 is phase 1 of the shared Figure 6 run.
    result = figure6_result
    text = benchmark.pedantic(report, args=(result,), iterations=1, rounds=1)
    print()
    print(text)

    # Paper: ~706,000 extra operations, a ~31% increase.  The simulator
    # reproduces a clear advantage for MeT.
    assert result.phase1_operations_ratio >= 1.05
    assert result.phase1_extra_operations > 0
    # The advantage materialises despite the initial reconfiguration cost.
    assert result.met.operations_until(result.phase1_minutes) > 0
