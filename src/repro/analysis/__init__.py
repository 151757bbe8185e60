"""Determinism sentinel: static AST rules + a runtime sanitizer.

Everything the repro sells -- golden traces, the resumable campaign
store, planner fingerprints -- rests on byte-determinism and on the
event kernel's dirty-signature discipline.  This package turns those
contracts into tooling:

* ``repro.analysis.engine`` walks the repo's Python files and applies
  the determinism rules (D1 unseeded randomness, D2 wall-clock reads,
  D3 unordered-set iteration, D4 the mutator audit against
  ``repro.simulation.invariants``, D5 non-canonical JSON, D6 float
  accumulation into mergeable integer channels).  Run it with
  ``python -m repro.analysis`` or ``scripts/lint.py``.
* ``repro.analysis.sanitizer`` is the runtime companion: a context
  manager that patches ``random``/``time`` so a guarded scope *raises*
  on global-RNG draws and wall-clock reads instead of silently
  producing irreproducible bytes.  The golden and campaign test suites
  run under it by default.

Findings are machine-readable (``path:line:RULE: message``); intentional
exceptions are annotated in-source with
``# repro: allow(RULE, reason=...)``.  Nothing is grandfathered: any
finding fails the gate.
"""

from __future__ import annotations

from repro.analysis.engine import DEFAULT_TARGETS, lint_paths, lint_repo
from repro.analysis.findings import Finding
from repro.analysis.rules import RULES
from repro.analysis.sanitizer import DeterminismViolation, guard

__all__ = [
    "DEFAULT_TARGETS",
    "DeterminismViolation",
    "Finding",
    "RULES",
    "guard",
    "lint_paths",
    "lint_repo",
]
