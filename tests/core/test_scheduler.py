"""Integration tests for the Sunway scheduler: modes, overlap, pipelining.

These exercise the paper's central mechanisms end-to-end on small grids:
the asynchronous mode overlaps MPE work with CPE kernels, the synchronous
mode does not, results are identical either way, and failures surface as
errors instead of hangs.
"""

import collections
import functools
import json
import pathlib
import re
from types import SimpleNamespace

import numpy as np
import pytest

from repro.burgers import BurgersProblem, solution_errors
from repro.core.controller import SimulationController
from repro.core.costs import SunwayCostModel
from repro.core.grid import Grid
from repro.core.schedulers import SunwayScheduler
from repro.core.schedulers.base import DeadlockError
from repro.core.task import Task, TaskKind
from repro.core.taskgraph import TaskGraph
from repro.core.varlabel import VarLabel
from repro.harness import calibration
from repro.harness.problems import problem_by_name
from repro.sunway.corerates import KernelCost

OVERHEAD_BASELINE = (
    pathlib.Path(__file__).resolve().parents[2]
    / "benchmarks" / "results" / "scheduler_overhead_baseline.json"
)


def run_burgers(num_ranks=2, mode="async", nsteps=3, extent=(16, 16, 16),
                layout=(2, 2, 2), trace=False, real=True, **kw):
    grid = Grid(extent=extent, layout=layout)
    prob = BurgersProblem(grid)
    ctl = SimulationController(
        grid, prob.tasks(), prob.init_tasks(),
        num_ranks=num_ranks, mode=mode, real=real, trace_enabled=trace, **kw,
    )
    res = ctl.run(nsteps=nsteps, dt=prob.stable_dt())
    return grid, prob, res


def collect_field(res):
    out = {}
    for dw in res.final_dws:
        for var in dw.grid_variables():
            out[var.patch.patch_id] = var.interior.copy()
    return out


# -- mode equivalence (out-of-order execution must not change results) -------------

def test_results_identical_across_modes_and_ranks():
    ref = collect_field(run_burgers(1, "async")[2])
    for num_ranks, mode in [(2, "async"), (4, "async"), (4, "sync"), (2, "mpe_only")]:
        got = collect_field(run_burgers(num_ranks, mode)[2])
        assert set(got) == set(ref)
        for pid in ref:
            assert np.array_equal(ref[pid], got[pid]), (num_ranks, mode, pid)


def test_mode_keyword_resolves_dispatch_fields():
    grid, prob, res = run_burgers(1, "async", nsteps=1)
    from repro.des import Simulator
    from repro.simmpi import Fabric, Comm
    from repro.sunway.athread import AthreadRuntime
    from repro.core.loadbalancer import LoadBalancer

    sim = Simulator()
    fabric = Fabric(sim, 1)
    assignment = LoadBalancer().assign(grid, 1)
    graph = TaskGraph(grid, prob.tasks(), assignment, 1)
    args = (sim, 0, graph, Comm(fabric, 0), AthreadRuntime(sim, num_groups=2), SunwayCostModel())
    for mode, offloads, blocking, num_groups in [
        ("async", True, False, 2),
        ("sync", True, True, 1),
        ("mpe_only", False, True, 1),
    ]:
        sched = SunwayScheduler(*args, mode=mode)
        assert sched.mode == mode
        got = (sched.offloads, sched.blocking, sched.num_groups)
        assert got == (offloads, blocking, num_groups)
        # mode is the constructor's seventh positional parameter
        assert SunwayScheduler(*args, mode).mode == mode
    assert SunwayScheduler(*args).mode == "async"
    for bad in ("warp", None):
        with pytest.raises(ValueError, match="mode must be one of"):
            SunwayScheduler(*args, mode=bad)
    with pytest.raises(ValueError, match="mode must be one of"):
        SunwayScheduler(*args, "warp")


# -- overlap mechanics ---------------------------------------------------------------

def test_async_overlaps_mpe_and_cpe():
    """The async scheduler's MPE lane must be busy while kernels run."""
    _, _, res = run_burgers(1, "async", nsteps=3, extent=(32, 32, 32), trace=True)
    overlap = res.trace.overlap_time(0, "mpe", "cpe")
    assert overlap > 0
    # a meaningful share of MPE work hides under kernels
    assert overlap > 0.05 * res.trace.busy_time(0, "mpe")


def test_sync_mode_has_no_mpe_cpe_overlap():
    _, _, res = run_burgers(1, "sync", nsteps=3, extent=(32, 32, 32), trace=True)
    assert res.trace.overlap_time(0, "mpe", "cpe") == pytest.approx(0.0, abs=1e-12)
    # but it did spin
    spins = res.trace.spans_for(0, "spin")
    assert spins


def test_async_not_slower_than_sync():
    _, _, async_res = run_burgers(2, "async", nsteps=4)
    _, _, sync_res = run_burgers(2, "sync", nsteps=4)
    assert async_res.time_per_step <= sync_res.time_per_step * 1.001


def test_sync_spin_wait_accounted():
    _, _, res = run_burgers(1, "sync", nsteps=2)
    assert res.stats.spin_wait > 0
    _, _, res_a = run_burgers(1, "async", nsteps=2)
    assert res_a.stats.spin_wait == 0.0


def test_mpe_only_runs_no_offloads():
    _, _, res = run_burgers(1, "mpe_only", nsteps=2)
    assert res.stats.kernels_offloaded == 0
    assert res.stats.kernels_on_mpe == 2 * 8  # 8 patches x 2 steps


def test_offload_counts():
    _, _, res = run_burgers(2, "async", nsteps=3)
    assert res.stats.kernels_offloaded == 3 * 8


# -- communication pipelining ------------------------------------------------------

def test_cross_step_messages_flow():
    _, _, res = run_burgers(4, "async", nsteps=3)
    # 8 patches, 24 directed neighbour pairs; with 4 SFC ranks of 2x1x1
    # blobs some pairs are local. All steps exchange.
    assert res.stats.messages_sent > 0
    # the final step's cross-step sends target step nsteps+1 and are
    # never consumed: exactly one step's worth of messages stays unmatched
    per_step = res.stats.messages_sent // (res.nsteps + 1)
    assert res.stats.messages_received == res.stats.messages_sent - per_step
    assert res.stats.local_copies > 0


def test_interference_debt_only_in_async_mode():
    """Vectorized async runs carry interference debt; sync runs don't."""
    cm = SunwayCostModel(simd=True)
    _, _, a = run_burgers(1, "async", nsteps=2, extent=(32, 32, 32), trace=True,
                          cost_model=cm)
    spans = [s for s in a.trace.spans_for(0, "cpe") if "interference" in s.name]
    assert spans, "async+simd should record interference extensions"
    _, _, s = run_burgers(1, "sync", nsteps=2, extent=(32, 32, 32), trace=True,
                          cost_model=SunwayCostModel(simd=True))
    assert not [x for x in s.trace.spans_for(0, "cpe") if "interference" in x.name]


# -- reductions ------------------------------------------------------------------------

def test_reduction_value_agrees_with_direct_computation():
    grid, prob, res = run_burgers(4, "async", nsteps=2)
    field = collect_field(res)
    expect = max(float(np.abs(v).max()) for v in field.values())
    for dw in res.final_dws:
        assert dw.get_reduction(prob.norm_label) == pytest.approx(expect, rel=1e-12)


def test_reduction_identical_across_rank_counts():
    _, prob, r1 = run_burgers(1, "async", nsteps=2)
    _, _, r4 = run_burgers(4, "async", nsteps=2)
    v1 = r1.final_dws[0].get_reduction(prob.norm_label)
    v4 = r4.final_dws[0].get_reduction(prob.norm_label)
    assert v1 == v4


# -- readiness tracking -----------------------------------------------------------------

class _StubGraph:
    """Graph facade with only internal edges: no messages, no copies."""

    def __init__(self, tasks, deps):
        self.tasks = tasks
        self.internal_deps = deps

    def local_tasks(self, rank):
        return self.tasks

    def dependents_of(self, dt):
        return [o for o in self.tasks if dt.dt_id in self.internal_deps[o.dt_id]]

    def recvs_for(self, dt):
        return ()

    copies_for = sends_after = copies_after = recvs_for

    def recvs_on(self, rank):
        return ()

    startup_sends = bootstrap_sends = startup_copies = recvs_on


class _StubTask:
    """A detailed task as the tracker sees it; counts ``dt_id`` reads."""

    reads = 0

    def __init__(self, dt_id, kind=TaskKind.CPE_KERNEL):
        self._id = dt_id
        self.task = Task(f"t{dt_id}", kind=kind, kernel_cost=KernelCost(1, 0),
                         reduction_op=max)
        self.patch = None

    @property
    def dt_id(self):
        _StubTask.reads += 1
        return self._id


def _tracker(num_tasks, deps=None, kinds=None, **kw):
    from repro.core.schedulers.base import RankPlan, ReadinessTracker

    kinds = kinds or [TaskKind.CPE_KERNEL] * num_tasks
    tasks = [_StubTask(i, kinds[i]) for i in range(num_tasks)]
    deps = deps if deps is not None else {i: set() for i in range(num_tasks)}
    plan = RankPlan(_StubGraph(tasks, deps), 0, SunwayCostModel(), scrub=False)
    return ReadinessTracker(plan, **kw), tasks


K, M, R = TaskKind.CPE_KERNEL, TaskKind.MPE, TaskKind.REDUCTION


def test_pop_kind_fifo_within_kind():
    from repro.core.schedulers.base import KERNEL_SLOT, MPE_SLOT, REDUCTION_SLOT

    tracker, _ = _tracker(6, kinds=[M, K, R, K, M, K])
    assert [d.dt_id for d in tracker.ready] == [0, 1, 2, 3, 4, 5]
    assert tracker.pop(KERNEL_SLOT).dt_id == 1
    assert tracker.pop(MPE_SLOT).dt_id == 0
    assert tracker.pop(KERNEL_SLOT).dt_id == 3
    assert tracker.pop(REDUCTION_SLOT).dt_id == 2
    assert tracker.pop(REDUCTION_SLOT) is None
    assert [d.dt_id for d in tracker.ready] == [4, 5]
    assert tracker.counts == [1, 1, 0]


def test_pop_kind_retry_requeued_at_front():
    from repro.core.schedulers.base import KERNEL_SLOT

    tracker, _ = _tracker(3)
    first = tracker.pop(KERNEL_SLOT)
    assert first.dt_id == 0
    tracker.requeue_front(first)  # a failed offload retries ahead of fresh work
    assert [d.dt_id for d in tracker.ready] == [0, 1, 2]
    assert tracker.pop(KERNEL_SLOT) is first
    assert tracker.counts[KERNEL_SLOT] == 2


def test_pop_kind_key_selects_highest_score():
    """The highest score of the kind wins, ties keep queue order, and
    tasks of other kinds are never scored."""
    from repro.core.schedulers.base import KERNEL_SLOT, MPE_SLOT

    tracker, _ = _tracker(5, kinds=[K, M, K, K, K])
    scores = {0: 1.0, 1: 99.0, 2: 5.0, 3: 5.0, 4: 2.0}
    scored = []

    def key(d):
        scored.append(d.dt_id)
        return scores[d.dt_id]

    assert tracker.pop(KERNEL_SLOT, key=key).dt_id == 2  # 2-vs-3 tie: queue order
    assert 1 not in scored  # the MPE task is not a candidate
    assert tracker.pop(KERNEL_SLOT, key=key).dt_id == 3
    # without a key: plain FIFO over the remaining kernels
    assert tracker.pop(KERNEL_SLOT).dt_id == 0
    assert tracker.pop(KERNEL_SLOT, key=key).dt_id == 4
    assert tracker.pop(KERNEL_SLOT, key=key) is None
    assert tracker.pop(MPE_SLOT).dt_id == 1
    assert not tracker.ready


def test_pop_kind_with_nothing_ready_does_not_scan():
    from repro.core.schedulers.base import MPE_SLOT, REDUCTION_SLOT

    tracker, _ = _tracker(50)
    _StubTask.reads = 0
    for _ in range(10):
        assert tracker.pop(MPE_SLOT) is None
        assert tracker.pop(REDUCTION_SLOT, key=lambda d: 0) is None
    assert _StubTask.reads == 0
    assert len(tracker.ready) == 50


def test_drain_keeps_global_fifo_order():
    """The unified scheduler dispatches every ready task in readiness
    order, across kinds."""
    tracker, _ = _tracker(4, deps={0: set(), 1: {0}, 2: set(), 3: {0}}, kinds=[M, K, R, K])
    assert [d.dt_id for d in tracker.drain()] == [0, 2]
    assert tracker.counts == [0, 0, 0] and not tracker.ready
    tracker.release(3)
    tracker.release(1)
    assert [d.dt_id for d in tracker.drain()] == [3, 1]


@pytest.mark.parametrize("mode", ["async", "sync", "mpe_only"])
def test_stats_counters_independent_of_subscribers(mode):
    """The lifecycle builds no events when nobody subscribed; the stats
    counters must equal a run where an extra subscriber sees every event."""
    import dataclasses

    def stats(extra_subscriber: bool):
        grid = Grid(extent=(16, 16, 16), layout=(2, 2, 2))
        prob = BurgersProblem(grid)
        ctl = SimulationController(
            grid, prob.tasks(), prob.init_tasks(), num_ranks=2, mode=mode, real=False
        )
        seen = []
        if extra_subscriber:
            for sched in ctl.schedulers:
                sched.lifecycle.subscribe(seen.append)
        res = ctl.run(nsteps=3, dt=prob.stable_dt())
        assert bool(seen) == extra_subscriber
        return res.total_time, [dataclasses.asdict(s) for s in res.rank_stats]

    assert stats(False) == stats(True)


def test_only_optional_observers_subscribe():
    """Spans and retry counts have their own routes: a traced run under a
    resilience policy puts nobody on the lifecycle bus, and a validator
    is each timestep scheduler's one subscriber."""
    from repro.faults import ResiliencePolicy
    from repro.verify import ScheduleValidator

    def controller(validator=None):
        grid = Grid(extent=(16, 16, 16), layout=(2, 2, 2))
        prob = BurgersProblem(grid)
        return SimulationController(
            grid, prob.tasks(), prob.init_tasks(), num_ranks=2, real=False,
            trace_enabled=True, resilience=ResiliencePolicy(), validator=validator,
        )

    assert all(not s.lifecycle.observed for s in controller().schedulers)
    validated = controller(ScheduleValidator())
    assert all(s.lifecycle.observed for s in validated.schedulers)
    assert all(len(s.lifecycle._subs) == 1 for s in validated.schedulers)


def test_unobserved_run_announces_nothing(monkeypatch):
    """With nobody subscribed, the comm engine skips ``emit`` for every
    receive, copy and scrub; with a subscriber, each one is announced."""
    from repro.core.schedulers.lifecycle import TaskLifecycle

    calls = []
    real_emit = TaskLifecycle.emit

    def counting_emit(self, kind, dt=None, **info):
        calls.append(kind)
        real_emit(self, kind, dt, **info)

    monkeypatch.setattr(TaskLifecycle, "emit", counting_emit)

    def run(subscribe):
        grid = Grid(extent=(16, 16, 16), layout=(2, 2, 2))
        prob = BurgersProblem(grid)
        ctl = SimulationController(
            grid, prob.tasks(), prob.init_tasks(), num_ranks=2, real=False
        )
        if subscribe:
            for sched in ctl.schedulers:
                sched.lifecycle.subscribe(lambda ev: None)
        res = ctl.run(nsteps=3, dt=prob.stable_dt())
        s = res.stats
        return s.messages_received + s.local_copies + s.scrubbed

    run(subscribe=False)
    assert calls == []
    announced = run(subscribe=True)
    assert announced > 0 and len(calls) == announced


#: What the lifecycle bus carries: what the schedule validator reads.
BUS_KINDS = {"step-begin", "transition", "msg-recv", "local-copy", "scrubbed"}


@functools.lru_cache(maxsize=None)
def _recorded_faulted_run(mode):
    """A faulted run with a recorder on each timestep scheduler's bus:
    the schedulers and, per rank, the recorded events."""
    from repro.faults import FaultConfig, FaultInjector, ResiliencePolicy

    grid = Grid(extent=(12, 12, 12), layout=(2, 2, 1))
    prob = BurgersProblem(grid)
    faults = FaultInjector(
        FaultConfig(
            seed=1,
            kernel_slowdown_prob=0.2,
            kernel_slowdown_factor=2.5,
            kernel_stuck_prob=0.1,
            dma_error_prob=0.2,
            msg_drop_prob=0.1,
        )
    )
    ctl = SimulationController(
        grid, prob.tasks(), prob.init_tasks(), num_ranks=2, mode=mode, real=False,
        faults=faults, resilience=ResiliencePolicy(max_offload_retries=1),
    )
    events = []
    for sched in ctl.schedulers:
        events.append([])
        sched.lifecycle.subscribe(events[-1].append)
    ctl.run(nsteps=4, dt=prob.stable_dt())
    return ctl.schedulers, events


@pytest.mark.parametrize("mode", ["async", "sync", "mpe_only"])
def test_bus_carries_only_what_the_validator_reads(mode):
    """Counters are bumped where they happen, so a faulted run announces
    nothing but step starts, transitions, receives, copies and scrubs."""
    _, events = _recorded_faulted_run(mode)
    kinds = {ev.kind for rank_events in events for ev in rank_events}
    assert "transition" in kinds and kinds <= BUS_KINDS, kinds - BUS_KINDS


@pytest.mark.parametrize("mode", ["async", "sync", "mpe_only"])
def test_counters_agree_with_the_bus(mode):
    """Each directly bumped counter equals the bus announcements of the
    same happenings, rank by rank."""
    from repro.core.schedulers.lifecycle import TaskState

    schedulers, events = _recorded_faulted_run(mode)
    for sched, rank_events in zip(schedulers, events):
        s = sched.stats
        kinds = collections.Counter(ev.kind for ev in rank_events)
        moves = collections.Counter(
            (ev.state, ev.info.get("backend"), ev.info.get("cause"), bool(ev.info.get("retry")))
            for ev in rank_events
            if ev.kind == "transition"
        )

        def count(state, backends=(None,), cause=None, retry=False):
            return sum(moves[(state, b, cause, retry)] for b in backends)

        assert s.tasks_run == sum(n for m, n in moves.items() if m[0] is TaskState.DONE)
        assert s.messages_received == kinds["msg-recv"]
        assert s.local_copies == kinds["local-copy"]
        assert s.scrubbed == kinds["scrubbed"]
        assert s.kernel_timeouts == count(TaskState.FAILED, cause="timeout")
        assert s.kernels_on_mpe == count(TaskState.RUNNING, ("mpe", "mpe_fallback"))
        assert s.mpe_fallbacks == count(TaskState.RUNNING, ("mpe_fallback",))
        assert s.kernels_offloaded == count(TaskState.RUNNING, ("cpe",))
        assert s.kernel_retries == count(TaskState.READY, retry=True) + count(
            TaskState.RUNNING, ("cpe",), retry=True
        )
    if mode != "mpe_only":
        # the fault seed reaches the watchdog and the MPE fallback
        assert sum(sched.stats.kernel_timeouts for sched in schedulers) > 0
        assert sum(sched.stats.mpe_fallbacks for sched in schedulers) > 0


def test_release_below_zero_raises():
    """Over-releasing a task is a task-graph bug and must not pass silently."""
    tracker, _ = _tracker(1)
    with pytest.raises(RuntimeError, match="negative"):
        tracker.release(0)  # task 0 had no blockers to begin with


def test_on_ready_hook_fires_once_per_task():
    seen = []
    tracker, _ = _tracker(
        2, deps={0: set(), 1: {0}}, on_ready=lambda dt: seen.append(dt.dt_id)
    )
    assert seen == [0]  # zero-blocker task is ready at construction
    tracker.release(1)
    assert seen == [0, 1]


# -- failure handling -------------------------------------------------------------------

def _impossible_blocker(graph):
    """The first task waits on a producer that does not exist (caught by
    the scheduler: nothing left to wait on)."""
    dt0 = graph.detailed_tasks[0]
    graph.internal_deps[dt0.dt_id].add(9999)
    graph.internal_deps[9999] = set()


#: The tag of the phantom message :func:`_message_never_sent` awaits.
PHANTOM_TAG = 10**6


def _message_never_sent(graph):
    """The first task also waits on a message no rank sends (caught by
    the controller: the event queue drains with the receive posted)."""
    phantom = SimpleNamespace(from_rank=0, tag=PHANTOM_TAG, region=SimpleNamespace(num_cells=1))
    victim = graph.detailed_tasks[0]
    recvs_for, recvs_on = graph.recvs_for, graph.recvs_on
    graph.recvs_for = lambda dt: recvs_for(dt) + [phantom] * (dt is victim)
    graph.recvs_on = lambda rank: recvs_on(rank) + [phantom]


def test_deadlock_detected_not_hung():
    """A corrupted timestep or initialization graph raises DeadlockError
    naming the phase the rank stopped in, whichever layer notices, and
    the receive it still awaits."""
    grid = Grid(extent=(8, 8, 8), layout=(1, 1, 1))
    prob = BurgersProblem(grid, with_reduction=False)
    for sabotage in (_impossible_blocker, _message_never_sent):
        for graph_attr, step, where in (
            ("graph", 1, "step 1"),
            ("init_graph", 0, "initialization"),
        ):
            ctl = SimulationController(
                grid, prob.tasks(), prob.init_tasks(), num_ranks=1, mode="async", real=True
            )
            graph = getattr(ctl, graph_attr)
            sabotage(graph)
            with pytest.raises(DeadlockError) as info:
                ctl.run(nsteps=1, dt=1e-4)
            msg = str(info.value)
            assert f"rank 0 {where}:" in msg, (sabotage.__name__, graph_attr)
            if sabotage is _message_never_sent:
                # the posted tag is the step's tag base plus the spec's tag
                tag = step * graph.num_tags + PHANTOM_TAG
                assert f"awaiting recv from rank 0 tag {tag})" in msg, msg


@pytest.mark.parametrize("mode", ["async", "sync"])
def test_stuck_kernel_without_policy_names_the_deadlock(mode):
    """A hung CPE with no resilience policy cannot recover; the run must
    end in a DeadlockError naming each rank's step, task states and hung
    kernel with its CPE group, not an anonymous drained-queue error."""
    from repro.faults import FaultConfig, FaultInjector

    grid = Grid(extent=(16, 16, 16), layout=(2, 2, 2))
    prob = BurgersProblem(grid)
    ctl = SimulationController(
        grid, prob.tasks(), prob.init_tasks(), num_ranks=2, mode=mode,
        faults=FaultInjector(FaultConfig(seed=1, kernel_stuck_prob=1.0)),
    )
    with pytest.raises(DeadlockError) as info:
        ctl.run(nsteps=3, dt=prob.stable_dt())
    msg = str(info.value)
    assert "rank 0 step 1:" in msg and "rank 1 step 1:" in msg
    assert "1 running" in msg  # the hung kernel, one per rank
    assert "pending" in msg
    kernels = {
        dt.name for dt in ctl.graph.detailed_tasks if dt.task.kind is TaskKind.CPE_KERNEL
    }
    hung = re.findall(r"awaiting kernel (\S+) on CPE group (\d+)\)", msg)
    assert len(hung) == 2, msg  # one per rank
    assert all(name in kernels and group == "0" for name, group in hung), hung


def test_kernel_exception_propagates():
    """A raising task action surfaces as the original exception."""
    grid = Grid(extent=(8, 8, 8), layout=(1, 1, 1))

    def bad_action(ctx):
        raise FloatingPointError("NaN in kernel")

    task = Task(
        "explode",
        kind=TaskKind.CPE_KERNEL,
        action=bad_action,
        kernel_cost=KernelCost(stencil_flops=1, exp_calls=0),
    )
    task.requires_(VarLabel("u"), dw="old", ghosts=0).computes_(VarLabel("u"))
    prob = BurgersProblem(grid, with_reduction=False)
    ctl = SimulationController(
        grid, [task], prob.init_tasks(), num_ranks=1, mode="async", real=True
    )
    with pytest.raises(FloatingPointError, match="NaN in kernel"):
        ctl.run(nsteps=1, dt=1e-4)


# -- numerics through the full stack ------------------------------------------------------

def test_solution_error_small_and_decreasing_with_resolution():
    errs = {}
    for n in (8, 16):
        grid = Grid(extent=(n, n, n), layout=(2, 2, 2))
        prob = BurgersProblem(grid)
        ctl = SimulationController(
            grid, prob.tasks(), prob.init_tasks(), num_ranks=2, mode="async", real=True
        )
        dt = prob.stable_dt()
        res = ctl.run(nsteps=4, dt=dt)
        errs[n] = solution_errors(grid, res.final_dws, prob.u_label, t=res.sim_time)
    assert errs[16]["l2"] < errs[8]["l2"]


def test_model_mode_reproduces_recorded_overhead_baseline():
    """Model-mode 16x16x512, async, 8 CGs charges exactly the simulated
    seconds recorded with the host-overhead baseline (perfbench's
    baseline cell reads the same file)."""
    baseline = json.loads(OVERHEAD_BASELINE.read_text())
    grid = problem_by_name("16x16x512").grid()
    burgers = BurgersProblem(grid)
    res = SimulationController(
        grid, burgers.tasks(), burgers.init_tasks(),
        num_ranks=8, mode="async", real=False,
        cost_model=calibration.cost_model(),
        fabric_config=calibration.FABRIC,
        scheduler_kwargs=calibration.scheduler_kwargs(),
    ).run(nsteps=baseline["nsteps"], dt=1e-5)
    assert res.total_time == baseline["simulated_seconds"]
