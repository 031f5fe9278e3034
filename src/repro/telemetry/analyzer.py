"""Time accounting and critical-path analysis over a traced run.

Folds :class:`~repro.core.trace.Tracer` spans and the per-timestep
ledger into the questions a performance engineer actually asks:

* **Per-rank time accounting** — every MPE span classified into the
  scheduler's activity categories (pack+send / unpack / copy / MPI /
  select / mpe-part / reductions / kernels-on-MPE / recovery), plus the
  CPE kernel lane, event-wait time and the unaccounted residue against
  the rank's wall clock.  The category sums reproduce
  ``Tracer.busy_time`` exactly (each lane's spans are disjoint in a
  fault-free run), which is the table's correctness anchor.
* **Per-timestep critical path** — the serialized busy time of the
  worst rank (``cpe + mpe - overlap``): the lower bound the step could
  reach with perfect waiting removed.  ``slack = wall - critical path``
  is the headroom a scheduling PR can still claim.
* **Top-N activities** — the tracer summary ranked by total seconds.

Rendering goes through :func:`repro.harness.reportfmt.render_table` so
profile output matches the repo's paper-artifact tables.
"""

from __future__ import annotations

import dataclasses

from repro.core.trace import Tracer, busy_intervals, intersect_total
from repro.harness.reportfmt import pct, render_table, seconds
from repro.telemetry.ledger import RunLedger

#: MPE span-name prefix -> accounting category.  Prefixes are matched on
#: the text before the first ``:`` (span names look like
#: ``mpe-part:timeAdvance@p3``); unknown names land in ``other``.
SPAN_CATEGORIES = {
    "send": "pack+send",
    "unpack": "unpack",
    "copy": "copy",
    "post-recvs": "mpi",
    "mpi-test": "mpi",
    "task-select": "select",
    "mpe-part": "mpe-part",
    "mpe-task": "mpe-kernel",
    "mpe-kernel": "mpe-kernel",
    "reduce-local": "reduction",
    "reduce-finish": "reduction",
    "recover-timeout": "recovery",
    "recover-fallback": "recovery",
}

#: Stable column order for the accounting table.
CATEGORY_ORDER = (
    "pack+send",
    "unpack",
    "copy",
    "mpi",
    "select",
    "mpe-part",
    "mpe-kernel",
    "reduction",
    "recovery",
    "other",
)


def categorize(span_name: str) -> str:
    """The accounting category of one MPE span name."""
    prefix = span_name.split(":", 1)[0]
    return SPAN_CATEGORIES.get(prefix, "other")


@dataclasses.dataclass
class RankBreakdown:
    """Where one rank's wall-clock went, in seconds."""

    rank: int
    #: Barrier release to this rank's finish.
    wall: float
    #: Sum of CPE-lane span durations (kernels + interference debt).
    cpe_kernel: float
    #: MPE seconds per category (sum of span durations).
    categories: dict[str, float]
    #: Seconds both lanes were busy at once.
    overlap: float
    #: Seconds the MPE blocked on events (MPI completion, kernel flags).
    event_wait: float
    #: Sync-mode completion-flag spinning.
    spin_wait: float

    @property
    def mpe_total(self) -> float:
        """All categorized MPE busy seconds."""
        return sum(self.categories.values())

    @property
    def unaccounted(self) -> float:
        """Wall seconds no span, wait or spin explains (should be ~0)."""
        return self.wall - self.mpe_total - self.event_wait - self.spin_wait


@dataclasses.dataclass
class RunAnalysis:
    """The analyzer's full output for one run."""

    breakdowns: list[RankBreakdown]
    ledger: RunLedger | None = None

    # ------------------------------------------------------------ rendering
    def render_time_accounting(self) -> str:
        """Per-rank accounting table (the `repro profile` centerpiece)."""
        used = [
            c
            for c in CATEGORY_ORDER
            if any(b.categories.get(c, 0.0) > 0 for b in self.breakdowns)
        ]
        headers = (
            ["Rank", "Wall", "CPE kernel"]
            + [c for c in used]
            + ["MPE total", "Wait", "Spin", "Overlap", "Ovl frac", "Unacct"]
        )
        rows = []
        for b in self.breakdowns:
            frac = b.overlap / b.cpe_kernel if b.cpe_kernel > 0 else 0.0
            rows.append(
                [b.rank, seconds(b.wall), seconds(b.cpe_kernel)]
                + [seconds(b.categories.get(c, 0.0)) for c in used]
                + [
                    seconds(b.mpe_total),
                    seconds(b.event_wait),
                    seconds(b.spin_wait),
                    seconds(b.overlap),
                    pct(frac),
                    seconds(b.unaccounted),
                ]
            )
        return render_table(
            "Per-rank time accounting (simulated seconds)", headers, rows
        )

    def render_critical_path(self) -> str:
        """Per-timestep wall vs serialized-busy critical-path estimate."""
        if self.ledger is None or not self.ledger.steps:
            return "(no ledger: critical-path table unavailable)"
        rows = []
        for s in self.ledger.steps:
            serial = [
                s.cpe_busy[r] + s.mpe_busy[r] - s.overlap[r]
                for r in range(len(s.mpe_busy))
            ]
            crit_rank = max(range(len(serial)), key=lambda r: serial[r])
            crit = serial[crit_rank]
            rows.append(
                (
                    s.step,
                    seconds(s.wall),
                    seconds(crit),
                    crit_rank,
                    seconds(max(s.wall - crit, 0.0)),
                    pct(s.overlap_fraction),
                )
            )
        return render_table(
            "Per-timestep critical path (serialized busy time of the worst rank)",
            ["Step", "Wall", "Critical path", "On rank", "Slack", "Overlap"],
            rows,
        )

    def render_ledger(self) -> str:
        """Per-timestep ledger summary table."""
        if self.ledger is None or not self.ledger.steps:
            return "(no ledger)"
        rows = []
        for s in self.ledger.steps:
            t = s.totals
            rows.append(
                (
                    s.step,
                    seconds(s.wall),
                    seconds(sum(s.mpe_busy)),
                    seconds(sum(s.cpe_busy)),
                    pct(s.overlap_fraction),
                    seconds(sum(s.comm_wait)),
                    f"{t.get('msgs_sent', 0):.0f}",
                    f"{t.get('bytes_sent', 0) / 1e6:.2f}",
                    f"{t.get('flops', 0) / 1e9:.2f}",
                )
            )
        return render_table(
            "Run ledger (per timestep, all ranks)",
            ["Step", "Wall", "MPE busy", "CPE busy", "Ovl frac", "Comm wait",
             "Msgs", "MB sent", "GFLOP"],
            rows,
        )


def analyze(result, ledger: RunLedger | None = None) -> RunAnalysis:
    """Build the per-rank breakdowns (and attach the ledger) for a run.

    ``result`` must come from a run with tracing enabled; without spans
    every busy column reads zero and only wall/wait survive.
    """
    lanes = result.trace.by_lane()
    boundaries = result.rank_step_ends
    breakdowns: list[RankBreakdown] = []
    for r in range(result.num_ranks):
        if boundaries is not None:
            wall = boundaries[r][-1] - boundaries[r][0]
        else:
            wall = result.total_time
        mpe = lanes.get((r, "mpe"), ())
        cpe = lanes.get((r, "cpe"), ())
        categories: dict[str, float] = {}
        for s in mpe:
            cat = categorize(s.name)
            categories[cat] = categories.get(cat, 0.0) + s.duration
        cpe_kernel = sum(s.duration for s in cpe)
        stats = result.rank_stats[r]
        breakdowns.append(
            RankBreakdown(
                rank=r,
                wall=wall,
                cpe_kernel=cpe_kernel,
                categories=categories,
                overlap=intersect_total(busy_intervals(mpe), busy_intervals(cpe)),
                event_wait=stats.idle_wait,
                spin_wait=stats.spin_wait,
            )
        )
    return RunAnalysis(breakdowns=breakdowns, ledger=ledger)


def render_top_tasks(trace: Tracer, n: int = 10, rank: int | None = None) -> str:
    """The N most expensive activities, by total traced seconds."""
    summary = trace.summarize(rank=rank)
    ranked = sorted(summary.items(), key=lambda kv: kv[1]["total"], reverse=True)[:n]
    rows = [
        (name, lane, info["count"], seconds(info["total"]), seconds(info["mean"]))
        for (name, lane), info in ranked
    ]
    where = "all ranks" if rank is None else f"rank {rank}"
    return render_table(
        f"Top {len(rows)} activities by total time ({where})",
        ["Activity", "Lane", "Count", "Total", "Mean"],
        rows,
    )
