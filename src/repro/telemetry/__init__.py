"""Runtime-wide observability: metrics, per-timestep ledger, analysis.

The paper's whole argument (Sec. VII-C) is that the asynchronous MPE+CPE
scheduler wins by *overlap* — so the runtime must be able to answer
"where did the time go, per timestep, per lane, per task?" on any run,
not just inside the test suite.  This package is that answer:

* :mod:`repro.telemetry.metrics` — :class:`MetricsRegistry` of counters
  and histograms (p50/p95/max).  A run's registry holds only what no
  counter does: the scheduler loop's queue depths and the offload
  engine's kernel durations and DMA get/put split;
* :mod:`repro.telemetry.ledger` — :class:`RunLedger`, the per-timestep
  JSONL record (wall/sim time, lane busy seconds, overlap fraction,
  comm-wait, metric deltas) with a provenance manifest.  Every count in
  it is derived from
  :class:`~repro.core.schedulers.base.SchedulerStats` — per-step deltas
  of ``RunResult.rank_step_stats``, which traced runs alone keep, and
  the run's totals — whose counters are bumped by their producers
  where things happen, never mapped a second time;
* :mod:`repro.telemetry.analyzer` — folds :class:`~repro.core.trace.
  Tracer` spans and the ledger into per-rank time accounting
  (kernel / pack / unpack / MPI-wait / idle) and a per-timestep
  critical-path estimate, rendered as text tables.

Everything is opt-in: a run without a registry attached skips the
sample sites behind one ``is not None`` test each, and attaching one
never changes the schedule (the golden-equivalence oracles pin that).

See ``docs/OBSERVABILITY.md`` for the metric catalog and ledger schema.
"""

from repro.telemetry.analyzer import RunAnalysis, analyze
from repro.telemetry.ledger import LedgerStep, RunLedger, build_ledger
from repro.telemetry.metrics import Counter, Histogram, MetricsRegistry

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "RunLedger",
    "LedgerStep",
    "build_ledger",
    "RunAnalysis",
    "analyze",
]
