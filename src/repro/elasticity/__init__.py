"""Elasticity baselines and placement strategies used in the evaluation.

* :mod:`repro.elasticity.autoscaler` -- the skeleton every controller
  (MeT, tiramola, the planner) shares: sampling cadence, cooldown and one
  decision log.
* :mod:`repro.elasticity.strategies` -- the three manual strategies of
  Section 3.3 (Random-Homogeneous, Manual-Homogeneous, Manual-Heterogeneous).
* :mod:`repro.elasticity.tiramola` -- the tiramola-style autoscaler the paper
  compares against in Section 6.4: threshold rules over system metrics that
  only add or remove whole nodes.
"""

from repro.elasticity.autoscaler import Autoscaler, AutoscalerAction
from repro.elasticity.strategies import (
    PlacementPlan,
    manual_heterogeneous,
    manual_homogeneous,
    random_homogeneous,
)
from repro.elasticity.tiramola import Tiramola, TiramolaPolicy

__all__ = [
    "Autoscaler",
    "AutoscalerAction",
    "PlacementPlan",
    "random_homogeneous",
    "manual_homogeneous",
    "manual_heterogeneous",
    "Tiramola",
    "TiramolaPolicy",
]
