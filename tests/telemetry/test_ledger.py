"""Ledger tests: determinism, overlap agreement, round-trip."""

import dataclasses

import pytest

from repro.harness.problems import problem_by_name
from repro.harness.runner import run_instrumented
from repro.harness.variants import variant_by_name
from repro.telemetry.ledger import RunLedger, build_ledger

from tests.telemetry.conftest import CGS, NSTEPS


def test_ledger_shape(bundle):
    ledger = bundle.ledger
    assert len(ledger.steps) == NSTEPS
    assert ledger.manifest["problem"] == "16x16x512"
    assert ledger.manifest["num_cgs"] == CGS
    for s in ledger.steps:
        assert len(s.mpe_busy) == CGS
        assert len(s.cpe_busy) == CGS
        assert s.wall > 0
        assert 0.0 <= s.overlap_fraction <= 1.0
        # the async variant actually overlaps (the paper's core claim)
        assert s.overlap_fraction > 0.1
        assert s.totals["tasks_done"] > 0
        assert s.totals["bytes_sent"] > 0
        assert s.totals["dma_bytes"] > 0


def test_ledger_overlap_agrees_with_tracer(bundle):
    """Summed per-step overlap must reproduce Tracer.overlap_time per rank.

    Step windows partition each rank's timeline, clipping is additive,
    so folding per-step clipped intersections must give the same answer
    as intersecting the whole-run interval lists.
    """
    trace = bundle.result.trace
    for r in range(CGS):
        assert sum(s.overlap[r] for s in bundle.ledger.steps) == pytest.approx(
            trace.overlap_time(r), rel=1e-9, abs=1e-12
        )


def test_ledger_wall_matches_run_result(bundle):
    res = bundle.result
    assert bundle.ledger.total_wall == pytest.approx(res.total_time, rel=1e-9)
    for step, expected in zip(bundle.ledger.steps, res.step_times):
        assert step.wall == pytest.approx(expected, rel=1e-9)


def test_ledger_determinism_two_runs_byte_identical():
    """Two identical runs serialize identically except the manifest line."""

    def one(created_at):
        return run_instrumented(
            problem_by_name("16x16x512"),
            variant_by_name("acc.async"),
            2,
            nsteps=2,
            created_at=created_at,
        ).ledger.to_jsonl()

    a, b = one("2026-01-01T00:00:00+00:00"), one("2026-02-02T00:00:00+00:00")
    assert a != b  # the timestamp differs...
    a_lines, b_lines = a.splitlines(), b.splitlines()
    assert a_lines[1:] == b_lines[1:]  # ...and ONLY the timestamp
    assert a_lines[0].startswith('{"created_at": "2026-01-01')


def test_ledger_jsonl_round_trip(tmp_path, bundle):
    path = bundle.ledger.write(tmp_path / "ledger.jsonl")
    loaded = RunLedger.read(path)
    assert loaded.manifest == bundle.ledger.manifest
    assert len(loaded.steps) == len(bundle.ledger.steps)
    for got, want in zip(loaded.steps, bundle.ledger.steps):
        assert got == want
    assert loaded.metrics == bundle.ledger.metrics
    assert loaded.to_jsonl() == bundle.ledger.to_jsonl()


def test_build_ledger_requires_step_boundaries(bundle):
    res = dataclasses.replace(bundle.result, rank_step_ends=None)
    with pytest.raises(ValueError, match="step boundaries"):
        build_ledger(res, bundle.telemetry, {})


def test_untraced_run_keeps_no_counter_copies():
    """Only a ledger reads the per-step counter copies, and a ledger needs
    spans: an untraced run makes none, and building its ledger says why."""
    from repro.burgers import BurgersProblem
    from repro.core.controller import SimulationController
    from repro.core.grid import Grid

    grid = Grid(extent=(8, 8, 16), layout=(2, 2, 1))
    prob = BurgersProblem(grid)
    res = SimulationController(
        grid, prob.tasks(), prob.init_tasks(), num_ranks=2, real=False
    ).run(nsteps=2, dt=prob.stable_dt())
    assert res.rank_step_stats is None
    assert res.rank_step_ends is not None
    with pytest.raises(ValueError, match="not traced"):
        build_ledger(res, None, {})
