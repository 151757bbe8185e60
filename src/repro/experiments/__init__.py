"""The paper's tables and figures, regenerated from recorded scenario runs.

The runs themselves are declared in :mod:`repro.scenarios.paper` as
:class:`~repro.scenarios.spec.ScenarioSpec`s and run by
:func:`~repro.scenarios.runner.run_scenario`, the same path as the scenario
catalog (and goldened like it, under ``tests/golden/paper/``).  Each module
here exposes a ``run_*`` function that runs its specs and folds the
:class:`~repro.scenarios.runner.ScenarioRunResult`s into a result object
with the paper's derived measures, and a ``main()`` that prints the same
rows/series the paper reports.  Figure 5 has no run of its own: its
``main()`` reports phase 1 of Figure 6's result.

* :mod:`repro.experiments.figure1` -- the Section 3.4 motivation experiment
  (Random-Homogeneous vs Manual-Homogeneous vs Manual-Heterogeneous).
* :mod:`repro.experiments.figure4` -- the Section 6.2 convergence experiment.
* :mod:`repro.experiments.table2` -- the Section 6.3 PyTPCC experiment.
* :mod:`repro.experiments.figure5` -- cumulative throughput, MeT vs tiramola.
* :mod:`repro.experiments.figure6` -- the Section 6.4 elasticity experiment.

Run one with ``python -m repro.experiments.<module>``.  The package imports
none of them itself, so running a module does not import it twice.
:mod:`repro.experiments.harness` is the harness every scenario run drives.
"""
