"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at a reduced
(but representative) duration so the whole suite runs in minutes.  Use the
``python -m repro.experiments.<figure>`` entry points for full-length runs.
"""

import pytest


@pytest.fixture(scope="session")
def figure6_result():
    """Run the elasticity experiment once and share it across benchmarks."""
    from repro.experiments.figure6 import run_figure6

    return run_figure6(minutes=45.0)
