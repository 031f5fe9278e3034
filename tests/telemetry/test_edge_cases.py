"""Edge cases for the ledger format and trace summarization.

The profiler sees degenerate inputs in practice — ledgers written
without metrics, duplicate activity names across lanes, empty tracers —
and must degrade to well-defined answers, not errors or silently merged
rows.
"""

from repro.core.trace import Tracer
from repro.telemetry.ledger import LedgerStep, RunLedger


def _step(step=0, wall=1.0, ranks=2, overlap=0.25, comm_wait=0.1):
    return LedgerStep(
        step=step,
        wall=wall,
        sim_time=(step + 1) * 1e-3,
        mpe_busy=[wall * 0.8] * ranks,
        cpe_busy=[wall * 0.5] * ranks,
        overlap=[overlap] * ranks,
        comm_wait=[comm_wait] * ranks,
        totals={"tasks_run": 4.0 * ranks},
    )


def _ledger(steps, metrics=None):
    return RunLedger(manifest={"mode": "async"}, steps=steps, metrics=metrics or {})


# ---------------------------------------------------------- ledger round trip
def test_metrics_free_ledger_round_trips(tmp_path):
    """Ledgers written without a metrics line read back with empty metrics."""
    ledger = _ledger([_step()])
    assert "\"kind\": \"metrics\"" not in ledger.to_jsonl()
    path = ledger.write(tmp_path / "run.jsonl")
    back = RunLedger.read(path)
    assert back.metrics == {}
    assert back.steps == ledger.steps


# ---------------------------------------------------------- Tracer.summarize
def test_summarize_keeps_same_name_on_different_lanes_apart():
    tr = Tracer()
    tr.record(0, "mpe", "timeAdvance@p0", 0.0, 1.0)
    tr.record(0, "cpe", "timeAdvance@p0", 0.0, 3.0)
    summary = tr.summarize()
    assert set(summary) == {("timeAdvance", "mpe"), ("timeAdvance", "cpe")}
    assert summary[("timeAdvance", "mpe")]["total"] == 1.0
    assert summary[("timeAdvance", "cpe")]["total"] == 3.0


def test_summarize_folds_patch_suffixes_per_lane():
    tr = Tracer()
    tr.record(0, "mpe", "mpe-part:timeAdvance@p0", 0.0, 1.0)
    tr.record(0, "mpe", "mpe-part:timeAdvance@p1", 1.0, 3.0)
    tr.record(1, "mpe", "mpe-part:timeAdvance@p2", 0.0, 2.0)
    summary = tr.summarize()
    entry = summary[("mpe-part:timeAdvance", "mpe")]
    assert entry["count"] == 3
    assert entry["total"] == 5.0
    assert entry["mean"] == 5.0 / 3
    # rank filter narrows the same key
    assert tr.summarize(rank=1)[("mpe-part:timeAdvance", "mpe")]["count"] == 1


def test_summarize_empty_tracer_is_empty():
    assert Tracer().summarize() == {}
    assert Tracer(enabled=False).summarize() == {}
