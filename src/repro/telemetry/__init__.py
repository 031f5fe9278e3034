"""Runtime-wide observability: metrics, per-timestep ledger, analysis.

The paper's whole argument (Sec. VII-C) is that the asynchronous MPE+CPE
scheduler wins by *overlap* — so the runtime must be able to answer
"where did the time go, per timestep, per lane, per task?" on any run,
not just inside the test suite.  This package is that answer:

* :mod:`repro.telemetry.metrics` — :class:`MetricsRegistry` of counters
  and histograms (p50/p95/max), fed by lifecycle-bus subscribers
  plus explicit hooks in the comm/offload engines, the DMA cost model
  and the simulated fabric;
* :mod:`repro.telemetry.collect` — :class:`RunTelemetry`, one run's
  collection state: the registry plus per-``(rank, step)`` counter
  buckets attributed by the per-rank :class:`TelemetrySubscriber`;
* :mod:`repro.telemetry.ledger` — :class:`RunLedger`, the per-timestep
  JSONL record (wall/sim time, lane busy seconds, overlap fraction,
  comm-wait, metric deltas) with a provenance manifest;
* :mod:`repro.telemetry.analyzer` — folds :class:`~repro.core.trace.
  Tracer` spans and the ledger into per-rank time accounting
  (kernel / pack / unpack / MPI-wait / idle) and a per-timestep
  critical-path estimate, rendered as text tables.

Everything is opt-in: a run without a :class:`RunTelemetry` attached
executes the exact same code path as before this package existed (the
golden-equivalence oracles pin that), and the only cost of the disabled
state is an ``is not None`` test at each hook site.

See ``docs/OBSERVABILITY.md`` for the metric catalog and ledger schema.
"""

from repro.telemetry.analyzer import RunAnalysis, analyze
from repro.telemetry.collect import RunTelemetry, TelemetrySubscriber
from repro.telemetry.ledger import LedgerStep, RunLedger, build_ledger
from repro.telemetry.metrics import Counter, Histogram, MetricsRegistry

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "RunTelemetry",
    "TelemetrySubscriber",
    "RunLedger",
    "LedgerStep",
    "build_ledger",
    "RunAnalysis",
    "analyze",
]
