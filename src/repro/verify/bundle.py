"""Minimized, seeded reproduction bundles for verification failures.

When the differential harness finds a violating or physics-divergent
case it emits a :class:`ReproBundle`: the exact (mode, policy, fault
seed, problem) coordinates, minimized to the fewest timesteps that still
fail, plus the first violating event and the window of bus events around
it.  A bundle is a plain JSON file; ``ReproBundle.command`` is the CLI
line that re-runs the failing case deterministically.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import typing as _t


@dataclasses.dataclass
class ReproBundle:
    """Everything needed to reproduce one verification failure."""

    #: What failed: an invariant identifier from the catalog, or
    #: ``"physics-divergence"`` / ``"schedule-perturbation"``.
    failure: str
    mode: str
    select_policy: str
    #: Fault seed (None = fault-free case).
    fault_seed: int | None
    #: Problem coordinates: extent, layout, num_ranks, nsteps (minimized).
    problem: dict
    #: The first violation, as a dict (None for pure divergence cases).
    violation: dict | None
    #: Ring-buffer snapshot of bus events around the first violation.
    window: list[dict]
    #: Free-form description of the failure.
    detail: str = ""

    @property
    def command(self) -> str:
        """CLI line that re-runs exactly this case."""
        extent = "x".join(str(e) for e in self.problem.get("extent", ()))
        parts = [
            "repro verify",
            f"--modes {self.mode}",
            f"--policies {self.select_policy}",
            f"--nsteps {self.problem.get('nsteps', 3)}",
            f"--extent {extent}" if extent else "",
            f"--cgs {self.problem.get('num_ranks', 2)}",
        ]
        parts.append(
            f"--seeds {self.fault_seed}" if self.fault_seed is not None else "--seeds none"
        )
        return " ".join(p for p in parts if p)

    def to_dict(self) -> dict[str, _t.Any]:
        return {
            "failure": self.failure,
            "mode": self.mode,
            "select_policy": self.select_policy,
            "fault_seed": self.fault_seed,
            "problem": self.problem,
            "violation": self.violation,
            "window": self.window,
            "detail": self.detail,
            "command": self.command,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def write(self, path: str | pathlib.Path) -> pathlib.Path:
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path

    def render(self) -> str:
        """Human-readable failure card."""
        lines = [
            f"verification failure: {self.failure}",
            f"  mode={self.mode} policy={self.select_policy} "
            f"seed={self.fault_seed}",
            f"  problem: {self.problem}",
        ]
        if self.detail:
            lines.append(f"  {self.detail}")
        if self.violation is not None:
            lines.append(
                f"  first violation: [{self.violation['invariant']}] "
                f"rank {self.violation['rank']} step {self.violation['step']} "
                f"-- {self.violation['detail']}"
            )
        if self.window:
            lines.append(f"  last {len(self.window)} bus events before failure:")
            for ev in self.window[-10:]:
                lines.append(f"    {ev}")
        lines.append(f"  reproduce: {self.command}")
        return "\n".join(lines)
