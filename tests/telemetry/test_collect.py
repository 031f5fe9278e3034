"""Collection tests: the ledger's counters are derived from the scheduler's
own stats, per-step copies of those stats partition the run, and attaching
a registry never perturbs the simulated schedule."""

import dataclasses

import pytest

from repro.burgers.component import BurgersProblem
from repro.core.controller import SimulationController
from repro.core.grid import Grid
from repro.faults import FaultConfig, FaultInjector, ResiliencePolicy
from repro.telemetry import MetricsRegistry, build_ledger

from tests.telemetry.conftest import NSTEPS


def _counter(bundle, name):
    return bundle.ledger.metrics[name]["value"]


def test_counters_agree_with_scheduler_stats(bundle):
    stats = bundle.result.stats
    assert _counter(bundle, "tasks.done") == stats.tasks_run
    assert _counter(bundle, "kernels.offloaded") == stats.kernels_offloaded
    assert _counter(bundle, "ghost.msgs.sent") == stats.messages_sent
    assert _counter(bundle, "ghost.bytes.sent") == stats.bytes_sent
    assert _counter(bundle, "ghost.msgs.recv") == stats.messages_received
    assert _counter(bundle, "ghost.bytes.recv") == stats.bytes_received
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


def test_step_stats_partition_run_totals(bundle):
    """Per-step deltas of the counter copies sum to each rank's totals."""
    res = bundle.result
    assert len(res.rank_step_stats) == len(res.rank_stats)
    for snaps, final in zip(res.rank_step_stats, res.rank_stats):
        assert len(snaps) == NSTEPS + 1
        assert all(v == 0 for v in snaps[0].values())  # nothing before step 1
        for field in dataclasses.fields(final):
            if field.type != "int":
                continue
            deltas = [snaps[s][field.name] - snaps[s - 1][field.name] for s in range(1, NSTEPS + 1)]
            assert sum(deltas) == getattr(final, field.name), field.name
    for key, total in (
        ("tasks_done", res.stats.tasks_run),
        ("msgs_sent", res.stats.messages_sent),
        ("bytes_sent", res.stats.bytes_sent),
        ("kernels_offloaded", res.stats.kernels_offloaded),
        ("flops", res.stats.kernel_flops),
        ("dma_bytes", res.stats.dma_bytes),
    ):
        assert sum(s.totals[key] for s in bundle.ledger.steps) == total, key


def test_dma_volume_counters(bundle):
    """DMA traffic: every offloaded kernel moves its tile plan's bytes."""
    get_b = _counter(bundle, "dma.get.bytes")
    put_b = _counter(bundle, "dma.put.bytes")
    assert get_b > 0 and put_b > 0
    # ghosted reads always exceed interior writes for a stencil kernel
    assert get_b > put_b
    assert _counter(bundle, "dma.descriptors") > 0
    # the stats field and its per-step attribution fold to the same total
    assert bundle.result.stats.dma_bytes == get_b + put_b
    assert sum(s.totals["dma_bytes"] for s in bundle.ledger.steps) == get_b + put_b


def test_queue_depth_histograms_sampled(bundle):
    reg = bundle.telemetry
    for name in ("sched.ready_depth", "cpe.inflight", "comm.workq_depth"):
        h = reg.histogram(name)
        assert h.count > 0, name
    # one loop-iteration sample per histogram, same loop
    assert reg.histogram("sched.ready_depth").count == reg.histogram("cpe.inflight").count


def test_kernel_duration_histograms(bundle):
    reg = bundle.telemetry
    h = reg.histogram("kernel.seconds")
    assert h.count == bundle.result.stats.kernels_offloaded
    # per-task-kind breakdown exists and folds back to the total
    per_task = reg.histogram("kernel.seconds.timeAdvance")
    assert per_task.count == h.count
    assert per_task.total == pytest.approx(h.total)


def test_resilience_counters_zero_in_fault_free_run(bundle):
    metrics = bundle.ledger.metrics
    for name in (
        "resilience.kernel_timeouts",
        "resilience.kernel_retries",
        "resilience.mpe_fallbacks",
        "resilience.stragglers",
        "net.retransmits",
    ):
        assert metrics.get(name, {"value": 0})["value"] == 0, name


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
        trace_enabled=True,
        telemetry=telemetry,
    )
    return controller.run(nsteps=3, dt=problem.stable_dt())


def test_telemetry_never_perturbs_the_schedule():
    """The golden-equivalence guarantee: observing changes nothing."""
    import numpy as np

    plain = _tiny_run()
    reg = MetricsRegistry()
    observed = _tiny_run(telemetry=reg)
    assert observed.total_time == plain.total_time  # bit-identical, no approx
    assert observed.step_times == plain.step_times
    assert observed.rank_step_ends == plain.rank_step_ends
    assert plain.rank_step_stats is not None  # traced runs keep the copies
    assert observed.rank_step_stats == plain.rank_step_stats
    for dw_a, dw_b in zip(plain.final_dws, observed.final_dws):
        for va, vb in zip(dw_a.grid_variables(), dw_b.grid_variables()):
            assert np.array_equal(va.interior, vb.interior)
    # and the observer did actually observe
    assert reg.histogram("kernel.seconds").count == observed.stats.kernels_offloaded


def test_telemetry_reaches_timestep_schedulers_only():
    grid = Grid(extent=(8, 8, 16), layout=(2, 2, 1))
    problem = BurgersProblem(grid)
    reg = MetricsRegistry()
    controller = SimulationController(
        grid,
        problem.tasks(),
        problem.init_tasks(),
        num_ranks=2,
        mode="async",
        real=True,
        telemetry=reg,
    )
    assert all(s.telemetry is reg for s in controller.schedulers)
    assert all(s.telemetry is None for s in controller.init_schedulers)


#: Derived registry counter -> the merged SchedulerStats field it reports.
_STATS_SOURCES = {
    "tasks.done": "tasks_run",
    "kernels.offloaded": "kernels_offloaded",
    "kernels.mpe": "kernels_on_mpe",
    "ghost.msgs.sent": "messages_sent",
    "ghost.bytes.sent": "bytes_sent",
    "ghost.msgs.recv": "messages_received",
    "ghost.bytes.recv": "bytes_received",
    "comm.local_copies": "local_copies",
    "comm.reductions": "reductions",
    "dw.scrubbed": "scrubbed",
    "flops.counted": "kernel_flops",
    "mpe.idle.seconds": "idle_wait",
    "mpe.spin.seconds": "spin_wait",
    "resilience.kernel_timeouts": "kernel_timeouts",
    "resilience.kernel_retries": "kernel_retries",
    "resilience.mpe_fallbacks": "mpe_fallbacks",
    "resilience.stragglers": "stragglers_detected",
}


@pytest.mark.parametrize("mode", ["async", "sync"])
def test_faulted_counters_equal_their_sources(mode):
    """Every derived counter equals its stats or fabric source under faults.

    A second event-to-counter mapping used to count ``kernels.mpe`` without
    the MPE fallbacks: at this fault seed it read 0 against 3.
    """
    grid = Grid(extent=(16, 16, 16), layout=(2, 2, 2))
    problem = BurgersProblem(grid)
    reg = MetricsRegistry()
    faults = FaultInjector(
        FaultConfig(
            seed=1,
            kernel_slowdown_prob=0.2,
            kernel_stuck_prob=0.1,
            dma_error_prob=0.2,
            msg_drop_prob=0.1,
        )
    )
    controller = SimulationController(
        grid,
        problem.tasks(),
        problem.init_tasks(),
        num_ranks=2,
        mode=mode,
        real=False,
        trace_enabled=True,
        faults=faults,
        resilience=ResiliencePolicy(max_offload_retries=2),
        telemetry=reg,
    )
    res = controller.run(nsteps=4, dt=problem.stable_dt())
    metrics = build_ledger(res, reg, {}).metrics

    def value(name):
        return metrics.get(name, {"value": 0})["value"]

    stats = res.stats
    assert stats.mpe_fallbacks > 0 and stats.mpi_retries > 0  # the faults bit
    for name, field in _STATS_SOURCES.items():
        assert value(name) == getattr(stats, field), name
    assert value("kernels.mpe") >= stats.mpe_fallbacks
    assert value("net.messages") == controller.fabric.messages_sent
    assert value("net.bytes") == controller.fabric.bytes_sent
    assert value("net.retransmits") == controller.fabric.mpi_retries
    assert value("dma.get.bytes") + value("dma.put.bytes") == stats.dma_bytes


@pytest.mark.parametrize("mode", ["async", "sync"])
def test_step_stats_carry_mpi_retries(mode):
    """Each retransmission is counted on its sender's stats when it
    happens, so a traced run's per-step copies partition the fabric's
    retry count rank by rank."""
    grid = Grid(extent=(16, 16, 16), layout=(2, 2, 2))
    problem = BurgersProblem(grid)
    controller = SimulationController(
        grid,
        problem.tasks(),
        problem.init_tasks(),
        num_ranks=4,
        mode=mode,
        real=False,
        trace_enabled=True,
        faults=FaultInjector(FaultConfig(seed=3, msg_drop_prob=0.3)),
        resilience=ResiliencePolicy(),
    )
    nsteps = 4
    res = controller.run(nsteps=nsteps, dt=problem.stable_dt())
    retries = controller.fabric.retries_by_rank
    assert sum(retries) > 0
    for r, snaps in enumerate(res.rank_step_stats):
        deltas = [
            snaps[s]["mpi_retries"] - snaps[s - 1]["mpi_retries"]
            for s in range(1, nsteps + 1)
        ]
        assert snaps[0]["mpi_retries"] == 0
        assert sum(deltas) == res.rank_stats[r].mpi_retries == retries[r], r
    assert res.stats.mpi_retries == controller.fabric.mpi_retries
    ledger = build_ledger(res, None, {})
    assert sum(s.totals["retransmits"] for s in ledger.steps) == sum(retries)
