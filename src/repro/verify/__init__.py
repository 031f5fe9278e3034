"""``repro.verify`` — schedule invariant checking and differential
verification.

Two halves:

* the **online validator** (:class:`ScheduleValidator`) — a pure,
  non-perturbing observer of the task-lifecycle bus, the data
  warehouses, and the completion flags, checking the invariant catalog
  (:data:`~repro.verify.invariants.CATALOG`) as a run unfolds;
* the **differential harness** (:func:`run_differential`, exposed as the
  ``repro verify`` CLI) — the same problem across every execution mode,
  selection policy, and fault seed, asserting bitwise-identical physics
  and zero violations, and emitting a minimized
  :class:`~repro.verify.bundle.ReproBundle` on failure.

See ``docs/VERIFICATION.md``.
"""

from repro.verify.bundle import ReproBundle
from repro.verify.differential import (
    CaseResult,
    DEFAULT_LAYOUT,
    DEFAULT_MODES,
    DEFAULT_SEEDS,
    check_nonperturbation,
    fault_config_for,
    fields_identical,
    fields_of,
    run_case,
    run_differential,
)
from repro.verify.invariants import CATALOG, Invariant, VerificationError, Violation
from repro.verify.validator import ScheduleValidator

__all__ = [
    "CATALOG",
    "CaseResult",
    "DEFAULT_LAYOUT",
    "DEFAULT_MODES",
    "DEFAULT_SEEDS",
    "Invariant",
    "ReproBundle",
    "ScheduleValidator",
    "VerificationError",
    "Violation",
    "check_nonperturbation",
    "fault_config_for",
    "fields_identical",
    "fields_of",
    "run_case",
    "run_differential",
]
