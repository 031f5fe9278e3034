"""Collection-layer tests: buckets and counters agree with the scheduler's
own stats, and attaching telemetry never perturbs the simulated schedule."""

import pytest

from repro.burgers.component import BurgersProblem
from repro.core.controller import SimulationController
from repro.core.grid import Grid
from repro.telemetry import RunTelemetry

from tests.telemetry.conftest import NSTEPS


def _counter(bundle, name):
    return bundle.telemetry.registry.counter(name).value


def test_counters_agree_with_scheduler_stats(bundle):
    stats = bundle.result.stats
    assert _counter(bundle, "tasks.done") == stats.tasks_run
    assert _counter(bundle, "kernels.offloaded") == stats.kernels_offloaded
    assert _counter(bundle, "ghost.msgs.sent") == stats.messages_sent
    assert _counter(bundle, "ghost.bytes.sent") == stats.bytes_sent
    assert _counter(bundle, "ghost.msgs.recv") == stats.messages_received
    assert _counter(bundle, "comm.local_copies") == stats.local_copies
    assert _counter(bundle, "comm.reductions") == stats.reductions
    assert _counter(bundle, "dw.scrubbed") == stats.scrubbed
    assert _counter(bundle, "flops.counted") == stats.kernel_flops
    assert _counter(bundle, "mpe.idle.seconds") == pytest.approx(
        sum(rs.idle_wait for rs in bundle.result.rank_stats)
    )


def test_wire_counters_agree_with_fabric(bundle):
    assert _counter(bundle, "net.messages") == bundle.result.messages_sent
    assert _counter(bundle, "net.bytes") == bundle.result.bytes_sent


def test_step_buckets_partition_run_totals(bundle):
    """Per-(rank, step) buckets must sum to the whole-run counters.

    Nothing may leak into a step-0 bucket: the controller instruments
    the timestep schedulers only, so every event lands in steps 1..N.
    """
    tele = bundle.telemetry
    assert not any(s == 0 for (_r, s) in tele.step_buckets)
    for key, total in (
        ("tasks_done", bundle.result.stats.tasks_run),
        ("msgs_sent", bundle.result.stats.messages_sent),
        ("bytes_sent", bundle.result.stats.bytes_sent),
        ("kernels_offloaded", bundle.result.stats.kernels_offloaded),
        ("flops", bundle.result.stats.kernel_flops),
    ):
        folded = sum(tele.step_totals(s).get(key, 0) for s in range(1, NSTEPS + 1))
        assert folded == total, key


def test_dma_volume_counters(bundle):
    """DMA traffic: every offloaded kernel moves its tile plan's bytes."""
    get_b = _counter(bundle, "dma.get.bytes")
    put_b = _counter(bundle, "dma.put.bytes")
    assert get_b > 0 and put_b > 0
    # ghosted reads always exceed interior writes for a stencil kernel
    assert get_b > put_b
    assert _counter(bundle, "dma.descriptors") > 0
    # per-step attribution folds to the same total
    folded = sum(
        bundle.telemetry.step_totals(s).get("dma_bytes", 0)
        for s in range(1, NSTEPS + 1)
    )
    assert folded == get_b + put_b


def test_queue_depth_histograms_sampled(bundle):
    reg = bundle.telemetry.registry
    for name in ("sched.ready_depth", "cpe.inflight", "comm.workq_depth"):
        h = reg.histogram(name)
        assert h.count > 0, name
    # one loop-iteration sample per histogram, same loop
    assert reg.histogram("sched.ready_depth").count == reg.histogram("cpe.inflight").count


def test_kernel_duration_histograms(bundle):
    reg = bundle.telemetry.registry
    h = reg.histogram("kernel.seconds")
    assert h.count == bundle.result.stats.kernels_offloaded
    # per-task-kind breakdown exists and folds back to the total
    per_task = reg.histogram("kernel.seconds.timeAdvance")
    assert per_task.count == h.count
    assert per_task.total == pytest.approx(h.total)


def test_resilience_counters_zero_in_fault_free_run(bundle):
    reg = bundle.telemetry.registry.snapshot()
    for name in (
        "resilience.kernel_timeouts",
        "resilience.kernel_retries",
        "resilience.mpe_fallbacks",
        "resilience.stragglers",
        "net.retransmits",
    ):
        assert reg.get(name, {"value": 0})["value"] == 0, name


def _tiny_run(telemetry=None):
    grid = Grid(extent=(8, 8, 16), layout=(2, 2, 1))
    problem = BurgersProblem(grid)
    controller = SimulationController(
        grid,
        problem.tasks(),
        problem.init_tasks(),
        num_ranks=2,
        mode="async",
        real=True,
        telemetry=telemetry,
    )
    return controller.run(nsteps=3, dt=problem.stable_dt())


def test_telemetry_never_perturbs_the_schedule():
    """The golden-equivalence guarantee: observing changes nothing."""
    import numpy as np

    plain = _tiny_run()
    tele = RunTelemetry()
    observed = _tiny_run(telemetry=tele)
    assert observed.total_time == plain.total_time  # bit-identical, no approx
    assert observed.step_times == plain.step_times
    assert observed.rank_step_ends == plain.rank_step_ends
    for dw_a, dw_b in zip(plain.final_dws, observed.final_dws):
        for va, vb in zip(dw_a.grid_variables(), dw_b.grid_variables()):
            assert np.array_equal(va.interior, vb.interior)
    # and the observer did actually observe
    assert tele.registry.counter("tasks.done").value == observed.stats.tasks_run


def test_telemetry_reaches_timestep_schedulers_only():
    grid = Grid(extent=(8, 8, 16), layout=(2, 2, 1))
    problem = BurgersProblem(grid)
    tele = RunTelemetry()
    controller = SimulationController(
        grid,
        problem.tasks(),
        problem.init_tasks(),
        num_ranks=2,
        mode="async",
        real=True,
        telemetry=tele,
    )
    assert all(s.telemetry is tele for s in controller.schedulers)
    assert all(s.telemetry is None for s in controller.init_schedulers)
