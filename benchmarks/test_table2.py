"""Benchmark regenerating Table 2 (Section 6.3 PyTPCC experiment)."""

from dataclasses import replace

from repro.experiments.table2 import report, run_table2
from repro.scenarios.paper import TABLE2


def test_table2_pytpcc(benchmark):
    """MeT improves TPC-C throughput without prior knowledge of the workload."""
    result = benchmark.pedantic(
        run_table2, args=(replace(TABLE2, duration_minutes=20.0),), iterations=1, rounds=1
    )
    print()
    print(report(result))

    # Paper ordering: Manual-Homogeneous < MeT with overhead < MeT without
    # reconfiguration overhead (25,380 < 31,020 < 33,720 tpmC).
    assert (
        result.manual_homogeneous_tpmc
        < result.met_with_overhead_tpmc
        < result.met_without_overhead_tpmc
    )
    # Heterogeneous improvement ~33% in the paper; require a clear gain.
    assert result.heterogeneous_improvement >= 1.10
    # Reconfiguration overhead is limited (~8% in the paper).
    assert result.reconfiguration_overhead <= 0.25
    # MeT classifies the write-intensive TPC-C partitions onto write profiles.
    assert "write" in set(result.met_profiles.values())
