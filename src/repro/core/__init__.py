"""The MeT framework: Monitor, Decision Maker and Actuator (paper Section 4).

:class:`~repro.core.framework.MeT` is the entry point: it wires the
Monitor (a :class:`~repro.monitoring.collector.MetricsCollector`), a
:class:`~repro.core.decision.DecisionMaker` and an
:class:`~repro.core.actuator.Actuator` around any cluster backend
(:mod:`repro.core.backends`), and is driven by calling
:meth:`~repro.core.framework.MeT.step` as simulated time advances.
"""

from repro.core.actuator import Actuator
from repro.core.backends import HBaseBackend, SimulatorBackend
from repro.core.classification import AccessPattern, classify_partition
from repro.core.decision import DecisionMaker, ReconfigurationPlan
from repro.core.framework import MeT
from repro.core.parameters import MeTParameters
from repro.core.profiles import NODE_PROFILES, NodeProfile

__all__ = [
    "MeT",
    "DecisionMaker",
    "ReconfigurationPlan",
    "Actuator",
    "MeTParameters",
    "NODE_PROFILES",
    "NodeProfile",
    "AccessPattern",
    "classify_partition",
    "SimulatorBackend",
    "HBaseBackend",
]
