"""Old/new data warehouses.

"The *old* data warehouse holds the data calculated in the previous
timestep.  The coarse task takes what it needs from the old data
warehouse and produces results that then populate the *new* data
warehouse ... after the timestep is completed, the new data warehouse
becomes the old data warehouse for the next timestep." (paper Sec. II)

Each simulated rank owns one old and one new :class:`DataWarehouse` per
timestep, holding only its local patches' variables (plus whatever ghost
data has been unpacked into their halos).  Reduction variables live in
the warehouse as scalars.

Access accounting: a warehouse remembers which keys were scrubbed, so
the three classic lifecycle bugs surface with precise diagnostics
instead of bare ``KeyError``/silent ``False``:

* *read-before-put* — ``get`` of a key no task has produced;
* *use-after-scrub* — ``get`` of a key whose last consumer already
  retired it;
* *double-put* / *double-scrub* — violations of the single-assignment
  and scrub-once contracts.

An optional ``observer`` (the ``repro.verify`` schedule validator's
access audit) is notified of each of these *before* the error is
raised, so an online checker can attribute the violation to the running
schedule even when the raise is swallowed upstream.  The observer hooks
charge no simulated time and are ``None`` by default: an unobserved
warehouse behaves byte-identically to the unhooked implementation.
"""

from __future__ import annotations

import typing as _t

from repro.core.patch import Patch
from repro.core.variables import CCVariable
from repro.core.varlabel import VarLabel


class DataWarehouse:
    """Variable storage for one rank and one timestep generation."""

    def __init__(self, step: int, rank: int = 0, observer=None):
        self.step = step
        self.rank = rank
        #: Access-audit hook (``on_dw_double_put`` / ``on_dw_bad_get`` /
        #: ``on_dw_double_scrub``); set by the verification subsystem.
        self.observer = observer
        self._grid_vars: dict[tuple[str, int], CCVariable] = {}
        self._reductions: dict[str, float] = {}
        #: Keys removed by :meth:`scrub_named` (for use-after-scrub
        #: diagnostics; scrubbing reclaims the data, not the history).
        self._scrubbed: set[tuple[str, int]] = set()

    # -- grid variables ----------------------------------------------------------
    def put(self, var: CCVariable) -> None:
        """Store a grid variable; a label/patch pair may only be computed once
        per timestep (Uintah's single-assignment rule)."""
        key = (var.label.name, var.patch.patch_id)
        if key in self._grid_vars or key in self._scrubbed:
            if self.observer is not None:
                self.observer.on_dw_double_put(self, key)
            was = "already scrubbed" if key in self._scrubbed else "already computed"
            raise KeyError(
                f"{var.label.name!r} on patch {var.patch.patch_id} {was} "
                f"in DW step {self.step} (variables are single-assignment)"
            )
        self._grid_vars[key] = var

    def get(self, label: VarLabel, patch: Patch) -> CCVariable:
        """Fetch a grid variable.

        Raises :class:`KeyError` with a precise diagnosis when the task
        graph never produced it (read-before-put) or when it was already
        scrubbed after its last counted consumer (use-after-scrub).
        """
        key = (label.name, patch.patch_id)
        var = self._grid_vars.get(key)
        if var is None:
            scrubbed = key in self._scrubbed
            if self.observer is not None:
                self.observer.on_dw_bad_get(self, key, scrubbed)
            if scrubbed:
                raise KeyError(
                    f"{label.name!r} on patch {patch.patch_id} was already scrubbed "
                    f"in DW step {self.step} (rank {self.rank}): use-after-scrub"
                )
            raise KeyError(
                f"{label.name!r} on patch {patch.patch_id} not in DW step {self.step} "
                f"(rank {self.rank})"
            )
        return var

    def exists(self, label: VarLabel, patch: Patch) -> bool:
        """Whether a grid variable is present."""
        return (label.name, patch.patch_id) in self._grid_vars

    def allocate_and_put(self, label: VarLabel, patch: Patch, ghosts: int = 1) -> CCVariable:
        """Create a zeroed variable, register it, return it (Uintah's
        ``allocateAndPut``)."""
        var = CCVariable(label, patch, ghosts)
        self.put(var)
        return var

    def scrub(self, label: VarLabel, patch: Patch) -> bool:
        """Drop a variable whose consumers have all run (memory reclaim).

        Returns whether the variable was actually present.  Delegates to
        :meth:`scrub_named` so both entry points share one removal path
        (the scheduler counts *logical* scrubs on the lifecycle bus,
        identically in real and model mode — not removals here).
        """
        return self.scrub_named(label.name, patch.patch_id)

    def scrub_named(self, label_name: str, patch_id: int) -> bool:
        """Scrub by key — what the scheduler's scrub machinery uses.

        Scrubbing is a once-only operation: scrubbing a key that was
        already scrubbed raises :class:`KeyError` naming the label,
        patch and step (the scheduler's consumer counting guarantees
        exactly one scrub per key — a second one is a runtime bug, not
        an idempotent no-op).  Scrubbing a key that was never present
        returns ``False``.
        """
        key = (label_name, patch_id)
        if key in self._scrubbed:
            if self.observer is not None:
                self.observer.on_dw_double_scrub(self, key)
            raise KeyError(
                f"{label_name!r} on patch {patch_id} already scrubbed "
                f"in DW step {self.step} (rank {self.rank}): double-scrub"
            )
        if self._grid_vars.pop(key, None) is None:
            return False
        self._scrubbed.add(key)
        return True

    # -- reductions -----------------------------------------------------------------
    def put_reduction(self, label: VarLabel, value: float) -> None:
        """Store a reduced scalar (overwrites: reductions are idempotent)."""
        if not label.is_reduction:
            raise TypeError(f"{label.name!r} is not a reduction label")
        self._reductions[label.name] = float(value)

    def get_reduction(self, label: VarLabel) -> float:
        """Fetch a reduced scalar."""
        if not label.is_reduction:
            raise TypeError(f"{label.name!r} is not a reduction label")
        try:
            return self._reductions[label.name]
        except KeyError:
            raise KeyError(f"reduction {label.name!r} not in DW step {self.step}") from None

    # -- inventory -------------------------------------------------------------------
    def grid_variables(self) -> _t.Iterator[CCVariable]:
        """Iterate stored grid variables (deterministic order)."""
        for key in sorted(self._grid_vars):
            yield self._grid_vars[key]

    def __len__(self) -> int:
        return len(self._grid_vars) + len(self._reductions)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<DataWarehouse step={self.step} rank={self.rank} "
            f"{len(self._grid_vars)} grid vars, {len(self._reductions)} reductions>"
        )
