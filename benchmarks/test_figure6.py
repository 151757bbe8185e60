"""Benchmark regenerating Figures 5 and 6 (Section 6.4 elasticity experiment).

Figure 5 is phase 1 of the Figure 6 runs, so one timed regeneration of the
two runs (MeT and tiramola, cut to 45 minutes) serves both figures and
checks both figures' claims.
"""

from dataclasses import replace

from repro.experiments import figure5
from repro.experiments.figure6 import report, run_figure6
from repro.scenarios.paper import FIGURE6


def test_figure6_elasticity(benchmark):
    """MeT outperforms tiramola and releases nodes when demand drops."""
    specs = {controller: replace(spec, duration_minutes=45.0) for controller, spec in FIGURE6.items()}
    result = benchmark.pedantic(run_figure6, args=(specs,), iterations=1, rounds=1)
    print()
    print(report(result))
    print(figure5.report(result))

    # Phase 1 (Figure 5): MeT's cumulative operations exceed tiramola's
    # (paper: ~706,000 extra operations, a ~31% increase).
    assert result.phase1_operations_ratio >= 1.05
    assert result.phase1_extra_operations > 0
    # The advantage materialises despite the initial reconfiguration cost.
    assert result.met.operations_until(result.phase1_minutes) > 0

    # MeT reaches a higher steady throughput than tiramola towards the end of
    # phase 1 (tiramola's added nodes are held back by random placement and
    # lost locality).
    met_plateau = result.met.throughput_between(25.0, result.phase1_minutes)
    tiramola_plateau = result.tiramola.throughput_between(25.0, result.phase1_minutes)
    assert met_plateau > tiramola_plateau

    # Phase 2: MeT releases nodes as tenants are switched off; tiramola only
    # releases when every node is under-utilised, so it keeps more machines.
    if result.minutes > 45:
        assert result.met_final_nodes < result.tiramola_final_nodes
    # Neither system exceeds the tenant quota.
    assert result.met_peak_nodes <= 11
    assert result.tiramola_peak_nodes <= 11
