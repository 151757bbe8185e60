"""Throughput-rate units SLO bounds can be declared in.

The simulator measures every tenant in key-value operations per second, but
a tenant's *promise* is naturally stated in its own unit -- a TPC-C tenant
is sold tpmC (new-order transactions per minute), not raw key-value ops.
This module owns the conversion table: a unit maps a simulator ops/s
figure into the native unit and back, and the SLO evaluator converts each
observed sample before judging it against a floor declared natively.

Units are registered lazily (the tpmC converter lives with the TPC-C
transaction mix) so the SLA layer never imports workload packages at import
time.
"""

from __future__ import annotations

from typing import Callable

__all__ = [
    "OPS_PER_SECOND",
    "TPMC",
    "RATE_UNITS",
    "from_native_rate",
    "to_native_rate",
]

#: The simulator's own unit (identity conversion).
OPS_PER_SECOND = "ops/s"
#: TPC-C new-order transactions per minute.
TPMC = "tpmC"


def _tpmc(ops_per_second: float) -> float:
    from repro.workloads.tpcc.driver import tpmc_from_ops_rate

    return tpmc_from_ops_rate(ops_per_second)


def _ops_from_tpmc(tpmc: float) -> float:
    from repro.workloads.tpcc.driver import ops_rate_from_tpmc

    return ops_rate_from_tpmc(tpmc)


def _identity(rate: float) -> float:
    return rate


#: Unit name -> ``(to_native, from_native)``: the converter from simulator
#: ops/s into the unit, and its exact inverse.  The capacity planner accepts
#: sizing targets in any registered unit and works internally in ops/s, so
#: every unit registers both directions.
RATE_UNITS: dict[str, tuple[Callable[[float], float], Callable[[float], float]]] = {
    OPS_PER_SECOND: (_identity, _identity),
    TPMC: (_tpmc, _ops_from_tpmc),
}


def _converters(unit: str) -> tuple[Callable[[float], float], Callable[[float], float]]:
    try:
        return RATE_UNITS[unit]
    except KeyError:
        raise ValueError(
            f"unknown throughput unit {unit!r}; known units: {sorted(RATE_UNITS)}"
        ) from None


def to_native_rate(unit: str, ops_per_second: float) -> float:
    """Convert a simulator ops/s rate into ``unit``."""
    return _converters(unit)[0](ops_per_second)


def from_native_rate(unit: str, native: float) -> float:
    """Convert a rate stated in ``unit`` back into simulator ops/s."""
    return _converters(unit)[1](native)
