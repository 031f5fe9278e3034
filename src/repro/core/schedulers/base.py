"""Shared scheduler plumbing: stats, errors, readiness, step context.

:class:`SchedulerCore` is the common trunk of both scheduler families
(:class:`~repro.core.schedulers.scheduler.SunwayScheduler` and
:class:`~repro.core.schedulers.unified.UnifiedHostScheduler`): it owns
the construction-time wiring — cost model, selection policy,
fault/resilience hooks, and the task-lifecycle event bus with its
stats/trace/retry subscribers.  Concrete schedulers add a backend
and the per-timestep orchestration; see ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

import dataclasses

from repro.core.schedulers.lifecycle import (
    RetryGovernor,
    StatsSubscriber,
    TaskLifecycle,
    TaskState,
    TraceSubscriber,
)
from repro.core.schedulers.selection import make_policy
from repro.core.task import TaskContext
from repro.core.trace import Tracer


class DeadlockError(RuntimeError):
    """The scheduler ran out of runnable work with tasks still pending.

    Indicates a task-graph bug (missing producer, wrong assignment) — the
    runtime refuses to hang silently.
    """


@dataclasses.dataclass
class SchedulerStats:
    """Counters accumulated by one rank's scheduler across a run."""

    tasks_run: int = 0
    #: CPE launches.  Async mode launches a re-offload again, so it counts
    #: here and in ``kernel_retries``; sync mode respawns in place, which
    #: counts in ``kernel_retries`` only.
    kernels_offloaded: int = 0
    kernels_on_mpe: int = 0
    messages_sent: int = 0
    messages_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    local_copies: int = 0
    reductions: int = 0
    #: Simulated seconds the MPE spent blocked with nothing runnable.
    idle_wait: float = 0.0
    #: Simulated seconds the sync mode spent spinning on the flag.
    spin_wait: float = 0.0
    #: Old-DW variables scrubbed after their last consumer (memory reclaim).
    scrubbed: int = 0
    #: Counted kernel flops (perf-counter convention).
    kernel_flops: int = 0
    #: DMA bytes (get + put) of the ``kernels_offloaded`` launches.
    dma_bytes: int = 0
    # -- resilience counters (all zero in a fault-free run) ---------------
    #: Offloaded kernels the completion-timeout watchdog gave up on.
    kernel_timeouts: int = 0
    #: Kernel re-offloads after a timeout or DMA error.
    kernel_retries: int = 0
    #: Kernels executed on the MPE after exhausting re-offload attempts.
    mpe_fallbacks: int = 0
    #: Retransmissions of dropped MPI messages (attributed to the sender).
    mpi_retries: int = 0
    #: Completed kernels slower than the policy's straggler threshold.
    stragglers_detected: int = 0
    #: Whole-rank failures recovered from a checkpoint (recovery runner).
    rank_recoveries: int = 0
    #: Timesteps re-executed because a failure discarded them.
    steps_replayed: int = 0

    def merge(self, other: "SchedulerStats") -> None:
        """Fold another rank's counters into this one."""
        for field in dataclasses.fields(self):
            setattr(self, field.name, getattr(self, field.name) + getattr(other, field.name))


class ReadinessTracker:
    """Blocker counting for one timestep's local detailed tasks.

    A task becomes ready when its internal producers have completed,
    every incoming message has been unpacked, and every intra-rank ghost
    copy feeding it has been performed.  ``on_ready`` (optional) fires
    once per task the moment it enters the ready queue — the lifecycle
    layer uses it for the PENDING → READY transition.
    """

    def __init__(self, local_tasks, graph, on_ready=None):
        self.blockers: dict[int, int] = {}
        self.ready: list = []
        self._tasks = {dt.dt_id: dt for dt in local_tasks}
        self._on_ready = on_ready
        for dt in local_tasks:
            n = len(graph.internal_deps[dt.dt_id])
            n += len(graph.recvs_for(dt))
            n += len(graph.copies_for(dt))
            self.blockers[dt.dt_id] = n
            if n == 0:
                self.ready.append(dt)
                if on_ready is not None:
                    on_ready(dt)

    def release(self, dt_id: int) -> None:
        """One blocker of ``dt_id`` resolved; enqueue when count hits zero."""
        if dt_id not in self.blockers:
            return  # consumer lives on another rank
        self.blockers[dt_id] -= 1
        if self.blockers[dt_id] == 0:
            dt = self._tasks[dt_id]
            self.ready.append(dt)
            if self._on_ready is not None:
                self._on_ready(dt)
        elif self.blockers[dt_id] < 0:
            raise RuntimeError(f"blocker count of task {dt_id} went negative")

    def pop_ready(self, predicate, key=None) -> object | None:
        """Remove and return a ready task matching ``predicate``.

        ``key`` (optional) selects among the matches: the highest-scoring
        one is taken (ties keep queue order).  Without it, FIFO.
        """
        ready = self.ready
        if key is None:
            for i, dt in enumerate(ready):
                if predicate(dt):
                    ready.pop(i)
                    return dt
            return None
        matches = [(i, dt) for i, dt in enumerate(ready) if predicate(dt)]
        if not matches:
            return None
        i, dt = max(matches, key=lambda pair: key(pair[1]))
        ready.pop(i)
        return dt

    @property
    def any_ready(self) -> bool:
        """Whether any task is currently runnable."""
        return bool(self.ready)


@dataclasses.dataclass
class StepContext:
    """Everything one timestep's engines share: DWs, tags, readiness.

    Built afresh by ``execute_timestep`` and handed to the comm/offload
    engines and the backend, so no per-step state leaks onto the
    scheduler object itself.
    """

    step: int
    time: float
    dt_value: float
    old_dw: object | None
    new_dw: object
    bootstrap: bool
    local: list
    tracker: ReadinessTracker
    remaining: set
    tag_base: int
    next_tag_base: int
    #: dt_ids whose MPE part already ran (prefetch dedup).
    prepared: set = dataclasses.field(default_factory=set)

    def dw_for(self, which: str):
        if which == "old":
            if self.old_dw is None:
                raise RuntimeError("graph requires old-DW data but there is no old DW")
            return self.old_dw
        return self.new_dw


class SchedulerCore:
    """Construction-time wiring shared by every scheduler implementation."""

    def __init__(
        self,
        sim,
        rank: int,
        graph,
        comm,
        athread,
        cost_model,
        mode: str = "async",
        real: bool = True,
        trace: Tracer | None = None,
        interference_scalar: float = 0.04,
        interference_simd: float = 0.50,
        scrub: bool = True,
        select_policy: str = "fifo",
        faults=None,
        resilience=None,
        telemetry=None,
        validator=None,
    ):
        self.sim = sim
        self.rank = rank
        self.graph = graph
        self.comm = comm
        self.athread = athread
        self.costs = cost_model
        self.mode = mode
        self.real = real
        self.trace = trace if trace is not None else Tracer(enabled=False)
        self.stats = SchedulerStats()
        self.interference = (
            interference_simd if getattr(cost_model, "simd", False) else interference_scalar
        )
        self._local_patches = graph.local_patches(rank)
        #: Cross-step sends still in flight from previous timesteps.
        self._carryover_sends: list = []
        #: Fault injector and resilience policy (both optional; the
        #: fault-free fast path must stay byte-identical to the seed).
        self.faults = faults
        self.policy = resilience
        #: Scrub old-DW variables once their last consumer has read them.
        self.scrub = scrub
        #: Ready-queue ordering strategy for step 3(b)ii "select a ready
        #: offloadable task" — see :mod:`repro.core.schedulers.selection`.
        self.select = make_policy(select_policy, graph, rank)
        self.select_policy = select_policy
        #: The task-lifecycle event bus; stats, tracing and the retry
        #: governor observe the run through it (never hand-threaded).
        #: Inert observers are not subscribed at all — a disabled tracer
        #: or absent resilience policy must not tax every event.
        self.lifecycle = TaskLifecycle(StatsSubscriber(self.stats), clock=sim)
        self.retry_governor = RetryGovernor(resilience)
        if self.trace.enabled:
            self.lifecycle.subscribe(TraceSubscriber(self.trace, rank))
        if resilience is not None:
            self.lifecycle.subscribe(self.retry_governor)
        #: Optional :class:`~repro.telemetry.metrics.MetricsRegistry` for
        #: the samples no counter holds (queue depths, kernel durations,
        #: the DMA get/put split); counters come from :attr:`stats`.
        self.telemetry = telemetry
        #: Online schedule validator (:class:`repro.verify.ScheduleValidator`);
        #: a pure observer of the lifecycle bus — off by default and, when
        #: on, provably non-perturbing (it charges no simulated time).
        self.validator = validator
        if validator is not None:
            self.lifecycle.subscribe(
                validator.subscriber_for(rank, graph, cost_model)
            )

    def _mark_ready(self, dt) -> None:
        """ReadinessTracker ``on_ready`` hook: PENDING → READY."""
        self.lifecycle.transition(dt, TaskState.READY)

    def _begin_step(
        self, step: int, time: float, dt_value: float, old_dw, new_dw, bootstrap: bool
    ) -> StepContext:
        """Fault hook, lifecycle reset, and a fresh :class:`StepContext`."""
        graph, rank = self.graph, self.rank
        if self.faults is not None:
            # Whole-rank failure strikes at timestep boundaries; the
            # raised RankFailure propagates through the driver process
            # and aborts Simulator.run for checkpoint recovery.
            self.faults.on_step_begin(rank, step)
        local = graph.local_tasks(rank)
        self.lifecycle.begin_step(local, step=step)
        return StepContext(
            step=step,
            time=time,
            dt_value=dt_value,
            old_dw=old_dw,
            new_dw=new_dw,
            bootstrap=bootstrap,
            local=local,
            tracker=ReadinessTracker(local, graph, on_ready=self._mark_ready),
            remaining={d.dt_id for d in local},
            tag_base=step * graph.num_tags,
            next_tag_base=(step + 1) * graph.num_tags,
        )

    def finish_task(self, st: StepContext, comm, dt) -> None:
        """Retire a completed task: queue its sends and copies on the
        :class:`~repro.core.schedulers.commengine.CommEngine`, release
        its dependents, and count its old-DW reads for scrubbing."""
        self.lifecycle.retire(dt)
        st.remaining.discard(dt.dt_id)
        comm.flush_stash(dt)
        for spec in self.graph.sends_after(dt):
            comm.queue_send(spec)
        for spec in self.graph.copies_after(dt):
            comm.queue_copy(spec)
        for dep in self.graph.dependents_of(dt):
            st.tracker.release(dep.dt_id)
        if dt.patch is not None:
            for dep in dt.task.requires:
                if dep.dw == "old" and not dep.label.is_reduction:
                    comm.consume_old(dep.label.name, dt.patch.patch_id)

    def _ctx(self, patch, st: StepContext) -> TaskContext:
        return TaskContext(
            grid=self.graph.grid,
            patch=patch,
            old_dw=st.old_dw,
            new_dw=st.new_dw,
            time=st.time,
            dt=st.dt_value,
            step=st.step,
            params=getattr(self, "params", {}),
        )
