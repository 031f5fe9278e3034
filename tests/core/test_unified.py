"""Tests for the Unified Scheduler model (the paper's Sec. II motivation)."""

import functools

import numpy as np
import pytest

from repro.burgers import BurgersProblem
from repro.core.controller import SimulationController
from repro.core.grid import Grid
from repro.core.schedulers.unified import UnifiedHostScheduler
from repro.harness.problems import problem_by_name
from repro.telemetry.analyzer import categorize


def run_unified(num_threads, num_ranks=2, nsteps=3, extent=(16, 16, 16),
                layout=(2, 2, 2), real=True, trace=False):
    grid = Grid(extent=extent, layout=layout)
    prob = BurgersProblem(grid)
    ctl = SimulationController(
        grid, prob.tasks(), prob.init_tasks(),
        num_ranks=num_ranks, real=real, trace_enabled=trace,
        scheduler_factory=functools.partial(UnifiedHostScheduler, num_threads=num_threads),
    )
    return ctl.run(nsteps=nsteps, dt=prob.stable_dt())


def collect(res):
    return {
        v.patch.patch_id: v.interior.copy()
        for dw in res.final_dws
        for v in dw.grid_variables()
    }


def test_results_match_sunway_scheduler_bitwise():
    grid = Grid(extent=(16, 16, 16), layout=(2, 2, 2))
    prob = BurgersProblem(grid)
    ctl = SimulationController(
        grid, prob.tasks(), prob.init_tasks(), num_ranks=2, mode="async", real=True
    )
    ref = collect(ctl.run(nsteps=3, dt=prob.stable_dt()))
    for threads in (1, 4):
        got = collect(run_unified(threads))
        for pid in ref:
            assert np.array_equal(ref[pid], got[pid]), (threads, pid)


def test_more_threads_is_faster():
    t1 = run_unified(1).time_per_step
    t2 = run_unified(2).time_per_step
    t8 = run_unified(8).time_per_step
    assert t2 < t1
    assert t8 <= t2


def test_thread_lanes_overlap_with_multiple_threads():
    res = run_unified(4, trace=True)
    lanes = {s.lane for s in res.trace.spans}
    assert {"thread0", "thread1"} <= lanes
    # two worker lanes busy at the same time
    assert res.trace.overlap_time(0, "thread0", "thread1") > 0


def test_single_thread_never_overlaps_itself():
    res = run_unified(1, trace=True)
    lanes = {s.lane for s in res.trace.spans}
    assert lanes <= {"thread0"}


def test_thread_spans_use_the_sunway_span_vocabulary():
    """Every worker-thread span lands in a named accounting category."""
    res = run_unified(2, trace=True)
    names = {s.name for s in res.trace.spans if s.lane.startswith("thread")}
    assert {"send", "unpack", "copy"} <= names
    assert [n for n in names if categorize(n) == "other"] == []


def test_reductions_complete():
    res = run_unified(2)
    grid_prob = BurgersProblem(Grid(extent=(16, 16, 16), layout=(2, 2, 2)))
    assert res.final_dws[0].get_reduction(grid_prob.norm_label) > 0
    assert res.stats.reductions > 0


def test_validation():
    with pytest.raises(ValueError, match="need >= 1 worker thread, got 0"):
        run_unified(0)


def test_paper_motivation_sunway_async_beats_unified_single_thread():
    """The quantitative form of Sec. II's challenge: on Sunway, the
    Unified Scheduler is limited to the MPE's single thread and cannot
    use the CPEs; the paper's async MPE+CPE scheduler wins by the
    offload factor (2.7-6.0x)."""
    problem = problem_by_name("16x16x512")
    grid = problem.grid()
    prob = BurgersProblem(grid)

    unified = SimulationController(
        grid, prob.tasks(), prob.init_tasks(), num_ranks=8, real=False,
        scheduler_factory=functools.partial(UnifiedHostScheduler, num_threads=1),
    ).run(nsteps=2, dt=1e-5)

    sunway = SimulationController(
        grid, prob.tasks(), prob.init_tasks(), num_ranks=8, real=False,
        mode="async",
    ).run(nsteps=2, dt=1e-5)

    boost = unified.time_per_step / sunway.time_per_step
    assert 2.0 < boost < 8.0
