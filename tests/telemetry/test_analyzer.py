"""Analyzer tests: the time-accounting tables must reproduce the tracer."""

import pytest

from repro.telemetry import analyze
from repro.telemetry.analyzer import categorize, render_top_tasks

from tests.telemetry.conftest import CGS


def test_categorize_span_names():
    assert categorize("send") == "pack+send"
    assert categorize("unpack") == "unpack"
    assert categorize("copy") == "copy"
    assert categorize("post-recvs") == "mpi"
    assert categorize("mpi-test") == "mpi"
    assert categorize("task-select") == "select"
    assert categorize("mpe-part:timeAdvance@p3") == "mpe-part"
    assert categorize("mpe-task:uNorm@p1") == "mpe-kernel"
    assert categorize("reduce-local:uNorm") == "reduction"
    assert categorize("reduce-finish:uNorm") == "reduction"
    assert categorize("recover-fallback:timeAdvance@p0") == "recovery"
    assert categorize("something-new") == "other"


def test_lane_totals_match_tracer_busy_time(bundle):
    """The acceptance anchor: category sums == Tracer.busy_time per lane.

    MPE spans are sequential in a fault-free run (one DES process per
    rank charges them back to back), so the sum of span durations equals
    the lane's union busy time to float tolerance.
    """
    analysis = analyze(bundle.result, ledger=bundle.ledger)
    trace = bundle.result.trace
    assert len(analysis.breakdowns) == CGS
    for b in analysis.breakdowns:
        assert b.mpe_total == pytest.approx(trace.busy_time(b.rank, "mpe"), rel=1e-9)
        assert b.cpe_kernel == pytest.approx(trace.busy_time(b.rank, "cpe"), rel=1e-9)
        assert b.overlap == pytest.approx(trace.overlap_time(b.rank), rel=1e-9)


def test_wall_accounting_closes(bundle):
    """Busy + wait + spin must account for (almost) the whole wall clock."""
    analysis = analyze(bundle.result, ledger=bundle.ledger)
    for b in analysis.breakdowns:
        assert b.wall > 0
        # CPE time overlaps MPE categories, so only the MPE side plus
        # waiting partitions the rank's wall; the residue is small slack
        # (event-loop reordering between charge and wait attribution).
        assert abs(b.unaccounted) < 0.05 * b.wall


def test_render_tables(bundle):
    analysis = analyze(bundle.result, ledger=bundle.ledger)
    acct = analysis.render_time_accounting()
    assert "Per-rank time accounting" in acct
    assert "CPE kernel" in acct and "Ovl frac" in acct
    ledger_tbl = analysis.render_ledger()
    assert "Run ledger" in ledger_tbl
    crit = analysis.render_critical_path()
    assert "critical path" in crit.lower()
    assert "Slack" in crit


def test_render_critical_path_without_ledger(bundle):
    analysis = analyze(bundle.result)
    assert "unavailable" in analysis.render_critical_path()
    assert analysis.render_ledger() == "(no ledger)"


def test_render_top_tasks(bundle):
    out = render_top_tasks(bundle.result.trace, n=5)
    assert "Top 5 activities" in out
    assert "timeAdvance" in out
    out0 = render_top_tasks(bundle.result.trace, n=3, rank=0)
    assert "rank 0" in out0
