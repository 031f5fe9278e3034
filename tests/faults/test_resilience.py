"""Scheduler- and transport-level resilience under injected faults."""

import numpy as np
import pytest

from repro.burgers import BurgersProblem
from repro.core.controller import SimulationController
from repro.core.grid import Grid
from repro.faults import FaultConfig, FaultInjector, ResiliencePolicy
from repro.sunway.dma import DMAError

GRID = Grid(extent=(12, 12, 12), layout=(2, 1, 1))


def run(num_ranks=2, nsteps=4, faults=None, resilience=None, mode="async", **kw):
    problem = BurgersProblem(GRID)
    controller = SimulationController(
        GRID,
        problem.tasks(),
        problem.init_tasks(),
        num_ranks=num_ranks,
        mode=mode,
        real=True,
        faults=faults,
        resilience=resilience,
        **kw,
    )
    return controller.run(nsteps=nsteps, dt=problem.stable_dt())


def fields(result):
    return {
        v.patch.patch_id: v.interior.copy()
        for dw in result.final_dws
        for v in dw.grid_variables()
    }


RESILIENCE_FIELDS = (
    "kernel_timeouts",
    "kernel_retries",
    "mpe_fallbacks",
    "mpi_retries",
    "stragglers_detected",
    "rank_recoveries",
    "steps_replayed",
)


# ------------------------------------------------------------- fault-free path
def test_attached_but_silent_injector_changes_nothing():
    """Injector with zero probabilities == no injector, bit for bit."""
    plain = run()
    silent = run(faults=FaultInjector(FaultConfig()), resilience=ResiliencePolicy())
    assert plain.total_time == silent.total_time
    a, b = fields(plain), fields(silent)
    assert all(np.array_equal(a[p], b[p]) for p in a)
    for name in RESILIENCE_FIELDS:
        assert getattr(silent.stats, name) == 0, name


def test_fault_free_run_has_zero_resilience_counters():
    result = run()
    for name in RESILIENCE_FIELDS:
        assert getattr(result.stats, name) == 0, name


# ------------------------------------------------------------- kernel faults
def test_dma_error_without_policy_raises():
    inj = FaultInjector(FaultConfig(seed=1, dma_error_prob=1.0))
    with pytest.raises(DMAError):
        run(faults=inj)


def test_dma_errors_recovered_by_reoffload():
    inj = FaultInjector(FaultConfig(seed=1, dma_error_prob=0.3))
    res = run(faults=inj, resilience=ResiliencePolicy())
    ref = run()
    assert res.stats.kernel_retries > 0
    a, b = fields(res), fields(ref)
    assert all(np.array_equal(a[p], b[p]) for p in a)


def test_permanent_dma_errors_fall_back_to_mpe():
    """With every offload failing, the MPE executes every kernel itself."""
    inj = FaultInjector(FaultConfig(seed=1, dma_error_prob=1.0))
    res = run(faults=inj, resilience=ResiliencePolicy(max_offload_retries=1))
    ref = run()
    assert res.stats.mpe_fallbacks > 0
    assert res.stats.kernel_retries > 0
    a, b = fields(res), fields(ref)
    assert all(np.array_equal(a[p], b[p]) for p in a)


def test_stuck_kernels_recovered_by_watchdog():
    inj = FaultInjector(FaultConfig(seed=2, kernel_stuck_prob=0.25))
    res = run(faults=inj, resilience=ResiliencePolicy())
    ref = run()
    assert res.stats.kernel_timeouts > 0
    a, b = fields(res), fields(ref)
    assert all(np.array_equal(a[p], b[p]) for p in a)


def test_sync_mode_recovers_stuck_kernels_too():
    inj = FaultInjector(FaultConfig(seed=2, kernel_stuck_prob=0.25))
    res = run(mode="sync", faults=inj, resilience=ResiliencePolicy())
    ref = run(mode="sync")
    assert res.stats.kernel_timeouts > 0
    a, b = fields(res), fields(ref)
    assert all(np.array_equal(a[p], b[p]) for p in a)


def test_slowdown_detected_as_straggler():
    cfg = FaultConfig(seed=3, kernel_slowdown_prob=0.5, kernel_slowdown_factor=4.0)
    res = run(faults=FaultInjector(cfg), resilience=ResiliencePolicy(
        # timeout above the slowdown factor so slow kernels complete and
        # register as stragglers instead of being aborted
        kernel_timeout_factor=8.0,
        straggler_factor=2.0,
    ))
    assert res.stats.stragglers_detected > 0
    assert res.stats.kernel_timeouts == 0


def test_faulty_run_is_slower_than_fault_free():
    inj = FaultInjector(FaultConfig(seed=4, kernel_stuck_prob=0.2))
    res = run(faults=inj, resilience=ResiliencePolicy())
    assert res.total_time > run().total_time


# ------------------------------------------------------------- network faults
def test_dropped_messages_are_retransmitted():
    """Drops are retransmitted until delivered; without a policy the
    fabric backs off with a default ResiliencePolicy's parameters, so
    both runs retry and finish alike."""
    ref = fields(run())
    runs = []
    for policy in (None, ResiliencePolicy()):
        inj = FaultInjector(FaultConfig(seed=5, msg_drop_prob=0.3))
        res = run(faults=inj, resilience=policy)
        assert res.stats.mpi_retries > 0
        a = fields(res)
        assert all(np.array_equal(a[p], ref[p]) for p in a)
        runs.append((res.stats.mpi_retries, res.total_time, res.step_times))
    assert runs[0] == runs[1]


def test_duplicated_and_delayed_messages_keep_physics():
    inj = FaultInjector(FaultConfig(seed=6, msg_dup_prob=0.2, msg_delay_prob=0.3))
    res = run(faults=inj, resilience=ResiliencePolicy())
    ref = run()
    a, b = fields(res), fields(ref)
    assert all(np.array_equal(a[p], b[p]) for p in a)


def test_brownout_slows_the_run_without_touching_physics():
    ref = run()
    cfg = FaultConfig(
        seed=7, brownout_rank=0, brownout_t0=0.0, brownout_t1=ref.total_time * 10
    )
    res = run(faults=FaultInjector(cfg), resilience=ResiliencePolicy())
    assert res.total_time > ref.total_time
    a, b = fields(res), fields(ref)
    assert all(np.array_equal(a[p], b[p]) for p in a)


# ------------------------------------------------------------- determinism
def test_faulty_runs_are_reproducible():
    """Same seed, same config: identical timings, physics, fault stream."""

    def go():
        inj = FaultInjector(
            FaultConfig(
                seed=9,
                kernel_stuck_prob=0.1,
                dma_error_prob=0.1,
                msg_drop_prob=0.1,
                msg_delay_prob=0.1,
            )
        )
        return run(faults=inj, resilience=ResiliencePolicy()), inj

    r1, i1 = go()
    r2, i2 = go()
    assert r1.total_time == r2.total_time
    assert i1.injected == i2.injected
    assert r1.stats == r2.stats
    a, b = fields(r1), fields(r2)
    assert all(np.array_equal(a[p], b[p]) for p in a)


# ------------------------------------------------------------- unified host
def test_unified_scheduler_charges_host_fault_overhead():
    from repro.core.schedulers.unified import UnifiedHostScheduler

    import functools

    factory = functools.partial(UnifiedHostScheduler, num_threads=4)
    problem = BurgersProblem(GRID)

    def unified(faults=None, resilience=None):
        return SimulationController(
            GRID,
            problem.tasks(),
            problem.init_tasks(),
            num_ranks=2,
            real=True,
            scheduler_factory=factory,
            faults=faults,
            resilience=resilience,
        ).run(nsteps=3, dt=problem.stable_dt())

    ref = unified()
    inj = FaultInjector(FaultConfig(seed=10, kernel_stuck_prob=0.3))
    res = unified(faults=inj, resilience=ResiliencePolicy())
    assert res.stats.kernel_timeouts > 0
    assert res.total_time > ref.total_time
    a, b = fields(res), fields(ref)
    assert all(np.array_equal(a[p], b[p]) for p in a)
