"""The invariant catalog: what a correct Sunway schedule must obey.

Every check the online :class:`~repro.verify.validator.ScheduleValidator`
performs has an entry here — a stable identifier, which layer it guards,
and a one-line statement of the invariant.  Violations reference catalog
entries by identifier, so reports and repro bundles all speak the same
vocabulary (see ``docs/VERIFICATION.md``).

The invariants fall into four families, mirroring the runtime layers:

* **lifecycle** — the task state machine and its readiness contract
  (paper Sec. V-B scheduling algorithm, steps 3a–3d);
* **flag** — the ``faaw`` completion-flag protocol between MPE and CPEs
  (Sec. V-B: "sets up a completion flag in the main memory just before
  offloading a kernel");
* **dw** — data-warehouse access legality (single assignment, scrub
  accounting; Sec. II);
* **ldm** — the 64 KB scratchpad budget every offloaded tile plan must
  respect (Sec. VI-A).
"""

from __future__ import annotations

import dataclasses
import typing as _t


@dataclasses.dataclass(frozen=True)
class Invariant:
    """One catalog entry."""

    ident: str
    family: str
    statement: str


#: The full catalog, keyed by identifier.
CATALOG: dict[str, Invariant] = {
    inv.ident: inv
    for inv in [
        # -- lifecycle -------------------------------------------------
        Invariant(
            "illegal-transition",
            "lifecycle",
            "Task state moves must follow the lifecycle state machine "
            "(pending -> ready -> dispatched -> running -> retiring -> done; "
            "failed may re-enter ready or running).",
        ),
        Invariant(
            "unknown-task",
            "lifecycle",
            "Every lifecycle event must reference a task registered for "
            "the current timestep.",
        ),
        Invariant(
            "run-before-dep",
            "lifecycle",
            "A task may enter RUNNING only after every internal task-graph "
            "producer it depends on is DONE.",
        ),
        Invariant(
            "run-before-recv",
            "lifecycle",
            "A task may enter RUNNING only after every incoming ghost "
            "message it requires has been received and unpacked.",
        ),
        Invariant(
            "run-before-copy",
            "lifecycle",
            "A task may enter RUNNING only after every intra-rank ghost "
            "copy feeding it has been performed.",
        ),
        Invariant(
            "scrub-early",
            "dw",
            "An old-DW variable may be scrubbed only after every local "
            "task that reads it has retired.",
        ),
        # -- completion flag -------------------------------------------
        Invariant(
            "flag-nonmonotone",
            "flag",
            "The faaw completion counter must strictly increase between "
            "clears (fetch-and-add never decrements).",
        ),
        Invariant(
            "flag-overcount",
            "flag",
            "Completion-flag bumps within a timestep must not exceed the "
            "kernels actually offloaded to the CPE cluster.",
        ),
        Invariant(
            "flag-undercount",
            "flag",
            "At the end of a timestep, completion-flag bumps must equal "
            "the offloaded kernels that retired cleanly (a missing bump "
            "means a completion was lost).",
        ),
        # -- data warehouse --------------------------------------------
        Invariant(
            "dw-read-before-put",
            "dw",
            "A warehouse read must be preceded by the producing task's put "
            "(no read of a variable no task has computed).",
        ),
        Invariant(
            "dw-double-put",
            "dw",
            "A label/patch pair is single-assignment: exactly one put per "
            "warehouse generation.",
        ),
        Invariant(
            "dw-use-after-scrub",
            "dw",
            "A scrubbed variable must never be read again (the scrub "
            "accounting counted all consumers).",
        ),
        Invariant(
            "dw-double-scrub",
            "dw",
            "Each variable is scrubbed at most once per generation.",
        ),
        # -- LDM budget ------------------------------------------------
        Invariant(
            "ldm-overflow",
            "ldm",
            "The tile plan of every kernel offloaded to the CPEs must fit "
            "the per-CPE LDM budget (64 KB on SW26010).",
        ),
    ]
}


class VerificationError(RuntimeError):
    """Raised in strict mode the moment an invariant is violated."""


@dataclasses.dataclass
class Violation:
    """One observed breach of a catalog invariant."""

    invariant: str
    rank: int
    #: Timestep the breach occurred in (-1 when unknown, e.g. replay).
    step: int
    #: Offending task name (None for non-task invariants).
    task: str | None
    #: Simulated time of the breach.
    t: float
    #: Human-readable specifics (names, counts, budgets).
    detail: str

    def __post_init__(self) -> None:
        if self.invariant not in CATALOG:
            raise ValueError(f"unknown invariant {self.invariant!r}")

    @property
    def family(self) -> str:
        return CATALOG[self.invariant].family

    def to_dict(self) -> dict[str, _t.Any]:
        return {
            "invariant": self.invariant,
            "family": self.family,
            "rank": self.rank,
            "step": self.step,
            "task": self.task,
            "t": self.t,
            "detail": self.detail,
        }

    def render(self) -> str:
        who = f" task={self.task}" if self.task else ""
        return (
            f"[{self.invariant}] rank {self.rank} step {self.step}{who} "
            f"t={self.t:.6g}: {self.detail}"
        )
