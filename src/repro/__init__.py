"""Reproduction of *MeT: workload aware elasticity for NoSQL* (EuroSys 2013).

The package is organised as the paper's system plus the cluster model it
runs on:

* :mod:`repro.simulation` -- deterministic, time-stepped cluster simulator
  (hardware budgets, per-operation cost model, closed-loop clients); the
  one model of the HBase/HDFS cluster every experiment runs on.
* :mod:`repro.hbase` -- the RegionServer configuration MeT tunes (Table 1)
  and HBase's default random balancer.
* :mod:`repro.sla` -- SLO judgement and billing: the IaaS instance flavors,
  their prices, and a run's bill (its machine-minutes at the RegionServer
  flavor's rate).  Simulator nodes are the virtual machines: adding one
  boots it for the IaaS boot delay, and scenario faults crash, slow down
  and repair the nodes themselves.
* :mod:`repro.monitoring` -- MeT's Monitor (system metrics and partition
  counters) and exponential smoothing.
* :mod:`repro.core` -- the MeT framework itself: the controller that wires
  the Monitor to the Decision Maker (Stages A-D, Algorithms 1-3) and the
  Actuator, plus the node configuration profiles of Table 1.
* :mod:`repro.elasticity` -- the controller skeleton every autoscaler
  shares (cadence, cooldown, decision log) and the baselines used in the
  paper's evaluation: the tiramola-style autoscaler and the manual
  placement strategies.
* :mod:`repro.workloads` -- YCSB workloads A-F and a TPC-C (PyTPCC-like)
  workload, both as analytical client bindings for the simulator.
* :mod:`repro.experiments` -- the experiment harness, and the tables and
  figures of the paper's evaluation section, folded from the paper's runs
  (:mod:`repro.scenarios.paper`).
"""

from repro.core.framework import MeT
from repro.core.parameters import MeTParameters
from repro.core.profiles import NODE_PROFILES, NodeProfile
from repro.simulation.cluster import ClusterSimulator
from repro.simulation.hardware import HardwareSpec

__version__ = "1.0.0"

__all__ = [
    "MeT",
    "MeTParameters",
    "NODE_PROFILES",
    "NodeProfile",
    "ClusterSimulator",
    "HardwareSpec",
    "__version__",
]
