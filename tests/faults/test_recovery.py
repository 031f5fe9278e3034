"""Integration: whole-rank failure recovered from a UDA checkpoint."""

import numpy as np
import pytest

from repro.burgers import BurgersProblem
from repro.core.controller import SimulationController
from repro.core.grid import Grid
from repro.faults import FaultConfig, ResiliencePolicy
from repro.faults.injector import RankFailure
from repro.faults.recovery import ResilientRunner

GRID = Grid(extent=(16, 16, 16), layout=(2, 2, 1))
NSTEPS = 12


def reference(num_ranks=4):
    problem = BurgersProblem(GRID)
    return SimulationController(
        GRID, problem.tasks(), problem.init_tasks(), num_ranks=num_ranks, real=True
    ).run(nsteps=NSTEPS, dt=BurgersProblem(GRID).stable_dt())


def fields(dws):
    return {
        v.patch.patch_id: v.interior.copy()
        for dw in dws
        for v in dw.grid_variables()
    }


def test_rank_failure_without_runner_aborts_the_job():
    """A died rank kills a plain run — recovery is the runner's job."""
    problem = BurgersProblem(GRID)
    from repro.faults import FaultInjector

    controller = SimulationController(
        GRID,
        problem.tasks(),
        problem.init_tasks(),
        num_ranks=4,
        real=True,
        faults=FaultInjector(FaultConfig(seed=0, fail_rank=1, fail_at_step=2)),
        resilience=ResiliencePolicy(),
    )
    with pytest.raises(RankFailure):
        controller.run(nsteps=4, dt=problem.stable_dt())


def test_midrun_rank_failure_recovers_from_checkpoint(tmp_path):
    """Rank 2 dies at step 8; the runner replays from the step-5 archive
    on 3 surviving CGs and the final fields match the fault-free run."""
    dt = BurgersProblem(GRID).stable_dt()
    runner = ResilientRunner(
        BurgersProblem,
        GRID,
        nsteps=NSTEPS,
        dt=dt,
        num_ranks=4,
        config=FaultConfig(seed=0, fail_rank=2, fail_at_step=8),
        policy=ResiliencePolicy(checkpoint_every=5),
        archive_root=str(tmp_path / "ck.uda"),
    )
    report = runner.run()

    assert report.rank_failures == 1
    assert report.recoveries == 1
    assert report.num_ranks_start == 4 and report.num_ranks_end == 3
    assert report.stats.rank_recoveries == 1
    # steps 6 and 7 ran, were poisoned by the failure at 8, and replayed
    assert report.steps_replayed == 2
    assert report.stats.steps_replayed == 2
    assert report.checkpoints_written >= 2
    assert report.faults_by_kind.get("rank_failure") == 1

    ref = fields(reference().final_dws)
    got = fields(runner.final_dws)
    assert set(got) == set(ref)
    for pid in ref:
        assert np.array_equal(got[pid], ref[pid]), f"patch {pid} diverged"


def test_recovery_with_concurrent_cpe_and_network_faults(tmp_path):
    """The acceptance scenario: everything at once, physics still exact,
    retries and recoveries all nonzero in the report."""
    dt = BurgersProblem(GRID).stable_dt()
    runner = ResilientRunner(
        BurgersProblem,
        GRID,
        nsteps=NSTEPS,
        dt=dt,
        num_ranks=4,
        config=FaultConfig(
            seed=7,
            kernel_slowdown_prob=0.10,
            kernel_stuck_prob=0.05,
            dma_error_prob=0.05,
            msg_drop_prob=0.05,
            msg_dup_prob=0.03,
            msg_delay_prob=0.05,
            fail_rank=2,
            fail_at_step=8,
        ),
        policy=ResiliencePolicy(checkpoint_every=5),
        archive_root=str(tmp_path / "ck.uda"),
    )
    report = runner.run()

    assert report.rank_failures == 1 and report.recoveries == 1
    assert report.stats.kernel_retries > 0
    assert report.stats.mpi_retries > 0
    assert report.recovery_spans > 0

    ref = fields(reference().final_dws)
    got = fields(runner.final_dws)
    for pid in ref:
        assert np.array_equal(got[pid], ref[pid]), f"patch {pid} diverged"


def test_failure_in_first_segment_restarts_from_scratch(tmp_path):
    """No checkpoint exists yet: recovery falls back to re-initializing."""
    dt = BurgersProblem(GRID).stable_dt()
    runner = ResilientRunner(
        BurgersProblem,
        GRID,
        nsteps=6,
        dt=dt,
        num_ranks=4,
        config=FaultConfig(seed=0, fail_rank=0, fail_at_step=2),
        policy=ResiliencePolicy(checkpoint_every=5),
        archive_root=str(tmp_path / "ck.uda"),
    )
    report = runner.run()
    assert report.recoveries == 1 and report.num_ranks_end == 3

    problem = BurgersProblem(GRID)
    ref_run = SimulationController(
        GRID, problem.tasks(), problem.init_tasks(), num_ranks=4, real=True
    ).run(nsteps=6, dt=dt)
    ref = fields(ref_run.final_dws)
    got = fields(runner.final_dws)
    for pid in ref:
        assert np.array_equal(got[pid], ref[pid])


def test_last_survivor_cannot_recover(tmp_path):
    dt = BurgersProblem(GRID).stable_dt()
    runner = ResilientRunner(
        BurgersProblem,
        GRID,
        nsteps=4,
        dt=dt,
        num_ranks=1,
        config=FaultConfig(seed=0, fail_rank=0, fail_at_step=2),
        policy=ResiliencePolicy(checkpoint_every=2),
        archive_root=str(tmp_path / "ck.uda"),
    )
    with pytest.raises(RuntimeError, match="no survivors"):
        runner.run()


def test_deterministic_reports(tmp_path):
    """Two identical resilient runs produce identical reports."""
    dt = BurgersProblem(GRID).stable_dt()

    def go(root):
        runner = ResilientRunner(
            BurgersProblem,
            GRID,
            nsteps=8,
            dt=dt,
            num_ranks=4,
            config=FaultConfig(seed=3, dma_error_prob=0.1, msg_drop_prob=0.1,
                               fail_rank=1, fail_at_step=6),
            policy=ResiliencePolicy(checkpoint_every=4),
            archive_root=str(root),
        )
        rep = runner.run()
        return rep, fields(runner.final_dws)

    r1, f1 = go(tmp_path / "a.uda")
    r2, f2 = go(tmp_path / "b.uda")
    assert r1 == r2
    assert all(np.array_equal(f1[p], f2[p]) for p in f1)


def test_recovery_spans_counted_without_tracing(tmp_path):
    """The runner leaves tracing off: recovery spans are counted where
    they are emitted, aborted segment included, and the count equals a
    traced run's recovery spans."""
    dt = BurgersProblem(GRID).stable_dt()

    def run(trace: bool):
        runner = ResilientRunner(
            BurgersProblem,
            GRID,
            nsteps=8,
            dt=dt,
            num_ranks=4,
            config=FaultConfig(
                seed=3,
                kernel_slowdown_prob=0.2,
                kernel_slowdown_factor=2.5,
                kernel_stuck_prob=0.1,
                dma_error_prob=0.1,
                fail_rank=1,
                fail_at_step=6,
            ),
            policy=ResiliencePolicy(checkpoint_every=4, max_offload_retries=0),
            archive_root=str(tmp_path / f"ck{int(trace)}.uda"),
            controller_kwargs={"trace_enabled": True} if trace else None,
        )
        return runner, runner.run()

    plain_runner, plain = run(trace=False)
    traced_runner, traced = run(trace=True)
    assert not plain_runner.last_result.trace.enabled
    assert plain_runner.last_result.trace.spans == []
    assert plain.recovery_spans == traced.recovery_spans > 0
    assert plain.stats.mpe_fallbacks > 0 and plain.stats.stragglers_detected > 0
    # the last segment's trace holds its share of the counted spans
    last = traced_runner.last_result.trace.spans
    assert 0 < sum(s.name.startswith(("recover-", "straggler:")) for s in last)
    assert sum(s.name.startswith(("recover-", "straggler:")) for s in last) <= traced.recovery_spans
