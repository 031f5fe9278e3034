"""The per-timestep run ledger: where the time went, step by step.

One :class:`LedgerStep` per timestep records wall and simulated time,
per-rank MPE/CPE busy and idle seconds, the overlap fraction (the
paper's Sec. VII-C quantity), comm-wait, and the step's metric deltas
(messages, bytes, flops, kernels, resilience events) summed over ranks.
The ledger serializes to JSONL — a ``manifest`` provenance line, one
``step`` line per timestep, a closing ``metrics`` line with the
registry snapshot — so runs can be archived and diffed on *overlap
fraction*, not just wall time.

Determinism contract: the DES is deterministic, so two identical runs
produce byte-identical ledgers except for the manifest's ``created_at``
timestamp (pinned by ``tests/telemetry/test_ledger.py``).
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import subprocess

from repro.core.trace import clip_intervals, intersect_total, merge_intervals

#: Bucket keys folded into each step line (sum over ranks).
_STEP_TOTAL_KEYS = (
    "tasks_done",
    "kernels_offloaded",
    "kernels_mpe",
    "msgs_sent",
    "bytes_sent",
    "msgs_recv",
    "local_copies",
    "reductions",
    "scrubbed",
    "flops",
    "dma_bytes",
    "kernel_timeouts",
    "kernel_retries",
    "mpe_fallbacks",
    "stragglers",
)


def git_revision(repo_dir: str | None = None) -> str | None:
    """Best-effort ``git rev-parse HEAD`` for the run manifest."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_dir,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


@dataclasses.dataclass
class LedgerStep:
    """One timestep's accounting, all ranks."""

    step: int
    #: Global wall seconds of the step (max over ranks), simulated.
    wall: float
    #: Simulation time reached at the end of the step.
    sim_time: float
    #: Per-rank lane seconds within this step's window.
    mpe_busy: list[float]
    cpe_busy: list[float]
    overlap: list[float]
    #: Per-rank seconds the MPE spent blocked on events (MPI, kernels).
    comm_wait: list[float]
    #: Step metric deltas summed over ranks (see ``_STEP_TOTAL_KEYS``).
    totals: dict[str, float]

    @property
    def overlap_fraction(self) -> float:
        """Overlapped share of CPE busy time this step (0 when no CPE)."""
        cpe = sum(self.cpe_busy)
        return sum(self.overlap) / cpe if cpe > 0 else 0.0

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["overlap_fraction"] = self.overlap_fraction
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "LedgerStep":
        d = dict(d)
        d.pop("overlap_fraction", None)
        d.pop("kind", None)
        return cls(**d)


@dataclasses.dataclass
class RunLedger:
    """A run manifest, its per-step records, and the final metric state."""

    manifest: dict
    steps: list[LedgerStep]
    metrics: dict = dataclasses.field(default_factory=dict)

    # ------------------------------------------------------------ aggregates
    @property
    def total_wall(self) -> float:
        return sum(s.wall for s in self.steps)

    @property
    def mean_overlap_fraction(self) -> float:
        if not self.steps:
            return 0.0
        return sum(s.overlap_fraction for s in self.steps) / len(self.steps)

    @property
    def total_comm_wait(self) -> float:
        return sum(sum(s.comm_wait) for s in self.steps)

    # ------------------------------------------------------------ (de)serialize
    def to_jsonl(self) -> str:
        lines = [json.dumps({"kind": "manifest", **self.manifest}, sort_keys=True)]
        for s in self.steps:
            lines.append(json.dumps({"kind": "step", **s.to_dict()}, sort_keys=True))
        if self.metrics:
            lines.append(json.dumps({"kind": "metrics", "metrics": self.metrics}, sort_keys=True))
        return "\n".join(lines) + "\n"

    def write(self, path: str | pathlib.Path) -> pathlib.Path:
        path = pathlib.Path(path)
        path.write_text(self.to_jsonl())
        return path

    @classmethod
    def read(cls, path: str | pathlib.Path) -> "RunLedger":
        manifest: dict = {}
        steps: list[LedgerStep] = []
        metrics: dict = {}
        for line in pathlib.Path(path).read_text().splitlines():
            if not line.strip():
                continue
            d = json.loads(line)
            kind = d.pop("kind", "step")
            if kind == "manifest":
                manifest = d
            elif kind == "metrics":
                metrics = d.get("metrics", {})
            else:
                steps.append(LedgerStep.from_dict(d))
        return cls(manifest=manifest, steps=steps, metrics=metrics)


def build_ledger(result, telemetry, manifest: dict) -> RunLedger:
    """Fold a run's trace, step boundaries and buckets into a ledger.

    ``result`` is a :class:`~repro.core.controller.RunResult` from a run
    with tracing enabled and per-rank step boundaries recorded;
    ``telemetry`` a :class:`~repro.telemetry.collect.RunTelemetry` (may
    be ``None`` — bucket-derived columns then read zero).
    """
    ranks = result.num_ranks
    boundaries = result.rank_step_ends
    if boundaries is None:
        raise ValueError("run has no per-rank step boundaries (telemetry off?)")
    # Merged busy intervals per rank/lane, clipped per step window below.
    mpe_merged = []
    cpe_merged = []
    for r in range(ranks):
        mpe_merged.append(merge_intervals([(s.t0, s.t1) for s in result.trace.spans_for(r, "mpe")]))
        cpe_merged.append(merge_intervals([(s.t0, s.t1) for s in result.trace.spans_for(r, "cpe")]))

    # Simulation time advances linearly; recover dt from the run result
    # (the manifest's dt takes precedence when recorded).
    t0 = manifest.get("t0", 0.0)
    dt = manifest.get("dt", (result.sim_time - t0) / result.nsteps if result.nsteps else 0.0)
    steps: list[LedgerStep] = []
    prev_global = max(boundaries[r][0] for r in range(ranks))
    for s in range(1, result.nsteps + 1):
        mpe_busy, cpe_busy, overlap, comm_wait = [], [], [], []
        for r in range(ranks):
            lo, hi = boundaries[r][s - 1], boundaries[r][s]
            m = clip_intervals(mpe_merged[r], lo, hi)
            c = clip_intervals(cpe_merged[r], lo, hi)
            mpe_busy.append(sum(b - a for a, b in m))
            cpe_busy.append(sum(b - a for a, b in c))
            overlap.append(intersect_total(m, c))
            bucket = telemetry.step_buckets.get((r, s), {}) if telemetry else {}
            comm_wait.append(
                bucket.get("idle_seconds", 0.0) + bucket.get("spin_seconds", 0.0)
            )
        cur_global = max(boundaries[r][s] for r in range(ranks))
        step_totals = telemetry.step_totals(s) if telemetry else {}
        steps.append(
            LedgerStep(
                step=s,
                wall=cur_global - prev_global,
                sim_time=t0 + s * dt,
                mpe_busy=mpe_busy,
                cpe_busy=cpe_busy,
                overlap=overlap,
                comm_wait=comm_wait,
                totals={k: step_totals.get(k, 0) for k in _STEP_TOTAL_KEYS},
            )
        )
        prev_global = cur_global
    metrics = telemetry.registry.snapshot() if telemetry else {}
    return RunLedger(manifest=manifest, steps=steps, metrics=metrics)
