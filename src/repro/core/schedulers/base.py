"""Shared scheduler plumbing: stats, errors, readiness, step context.

:class:`SchedulerCore` is the common trunk of both scheduler families
(:class:`~repro.core.schedulers.scheduler.SunwayScheduler` and
:class:`~repro.core.schedulers.unified.UnifiedHostScheduler`): it owns
the construction-time wiring — cost model, selection key,
fault/resilience hooks, the tracer, the :class:`SchedulerStats` that
each producing call site bumps, and the task-lifecycle event bus with
its optional validator.  Concrete schedulers add where kernels run and
the per-timestep orchestration; see ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

import dataclasses
import functools

from repro.core.schedulers.commengine import SlabTable
from repro.core.schedulers.lifecycle import TaskLifecycle, TaskState
from repro.core.schedulers.selection import select_key
from repro.core.task import TaskContext, TaskKind
from repro.core.trace import Tracer


class DeadlockError(RuntimeError):
    """The run ran out of runnable work or events with tasks still pending.

    A task-graph bug (missing producer, wrong assignment) or a hung kernel
    nothing recovers — the runtime refuses to hang silently.
    """


@dataclasses.dataclass
class SchedulerStats:
    """Counters accumulated by one rank's scheduler across a run.

    Each counter is bumped by the code where the thing it counts
    happens (``docs/ARCHITECTURE.md`` §2 lists the sites).
    """

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


#: Ready-queue slot of each task kind.  A :class:`RankPlan` stores every
#: task's slot and the :class:`ReadinessTracker` counts ready tasks per
#: slot, so the per-event paths index lists by int and never hash the
#: enum (``Enum.__hash__`` is Python-level in CPython 3.11).
KIND_SLOT: dict[TaskKind, int] = {kind: i for i, kind in enumerate(TaskKind)}
KERNEL_SLOT = KIND_SLOT[TaskKind.CPE_KERNEL]
MPE_SLOT = KIND_SLOT[TaskKind.MPE]
REDUCTION_SLOT = KIND_SLOT[TaskKind.REDUCTION]


class RankPlan:
    """One rank's share of a compiled task graph, indexed and priced once.

    A scheduler builds it on its first timestep and reuses it for every
    later one: the graph is fixed until the patch distribution changes.

    * ``tasks``, ``kind_slot``, ``blockers`` and ``initially_ready`` are
      what each step's :class:`ReadinessTracker` starts from.
    * ``retire[dt_id]`` is what retiring the task does: the work items it
      queues (its sends, then its copies), the same-rank dependents it
      releases, and the old-DW variables it read (scrub keys).
    * ``recvs`` lists this rank's incoming messages with their unpack cost.
    * ``startup`` and ``bootstrap_startup`` are the work items queued at
      step start; the first timestep adds the bootstrap sends.
    * ``scrub_counts`` and ``bootstrap_scrub_counts`` are the old-DW
      reader counts at step start, the startup sends' reads included.

    Work items are ``(kind, payload, cost)`` tuples shared by every step.
    A send's payload says which tag base it uses (``next_step``) instead
    of holding one step's tags.  Each cost is priced once per spec:
    ``pack_time(...)``, then ``+ send_post`` for a send.
    """

    def __init__(self, graph, rank: int, costs, scrub: bool):
        local = graph.local_tasks(rank)
        self.tasks = {dt.dt_id: dt for dt in local}
        self.kind_slot = {dt.dt_id: KIND_SLOT[dt.task.kind] for dt in local}
        self.blockers: dict[int, int] = {}
        self.initially_ready: list = []
        for dt in local:
            n = len(graph.internal_deps[dt.dt_id])
            n += len(graph.recvs_for(dt))
            n += len(graph.copies_for(dt))
            self.blockers[dt.dt_id] = n
            if n == 0:
                self.initially_ready.append(dt)

        send_post = costs.sched.send_post

        def send_item(spec, from_bootstrap: bool = False) -> tuple:
            cost = costs.pack_time(spec.region.num_cells, remote=True)
            cost += send_post
            # cross-step slabs produced now are consumed next step; at
            # bootstrap they feed the current step from the init data
            if spec.cross_step and not from_bootstrap:
                return ("send", (spec, True, "new"), cost)
            return ("send", (spec, False, "old" if spec.cross_step else spec.dw), cost)

        def copy_item(spec) -> tuple:
            return ("copy", spec, costs.pack_time(spec.ncells, remote=False))

        self.retire: dict[int, tuple[tuple, tuple, tuple]] = {}
        for dt in local:
            work = tuple(send_item(m) for m in graph.sends_after(dt))
            work += tuple(copy_item(c) for c in graph.copies_after(dt))
            reads: tuple = ()
            if scrub and dt.patch is not None:
                reads = tuple(
                    (dep.label.name, dt.patch.patch_id)
                    for dep in dt.task.requires
                    if dep.dw == "old" and not dep.label.is_reduction
                )
            deps = tuple(d.dt_id for d in graph.dependents_of(dt))
            self.retire[dt.dt_id] = (work, deps, reads)

        self.recvs = [
            (spec, costs.pack_time(spec.region.num_cells, remote=True))
            for spec in graph.recvs_on(rank)
        ]
        sends = tuple(send_item(m) for m in graph.startup_sends(rank))
        boots = tuple(send_item(m, from_bootstrap=True) for m in graph.bootstrap_sends(rank))
        copies = tuple(copy_item(c) for c in graph.startup_copies(rank))
        self.startup = sends + copies
        self.bootstrap_startup = sends + boots + copies

        self.scrub_counts: dict[tuple[str, int], int] = {}
        self.bootstrap_scrub_counts: dict[tuple[str, int], int] = {}
        if scrub:
            counts = graph.old_dw_consumers(rank)
            for spec in graph.startup_sends(rank):
                if spec.dw == "old":
                    key = (spec.label.name, spec.from_patch.patch_id)
                    counts[key] = counts.get(key, 0) + 1
            self.scrub_counts = counts
            boot = dict(counts)
            for spec in graph.bootstrap_sends(rank):
                key = (spec.label.name, spec.from_patch.patch_id)
                boot[key] = boot.get(key, 0) + 1
            self.bootstrap_scrub_counts = boot


class ReadinessTracker:
    """Blocker counting for one timestep's local detailed tasks.

    A task becomes ready when its internal producers have completed,
    every incoming message has been unpacked, and every intra-rank ghost
    copy feeding it has been performed.  ``on_ready`` (optional) fires
    once per task the moment it enters the ready queue — the lifecycle
    layer uses it for the PENDING → READY transition.

    ``ready`` is one queue in readiness order; ``counts[slot]`` is how
    many of its tasks have kind ``slot`` (:data:`KIND_SLOT`), so a pop
    for a kind with nothing ready returns without a scan.
    """

    def __init__(self, plan: RankPlan, on_ready=None):
        self.blockers = dict(plan.blockers)
        self.ready: list = []
        self.counts = [0] * len(KIND_SLOT)
        self._tasks = plan.tasks
        self._slot = plan.kind_slot
        self._on_ready = on_ready
        for dt in plan.initially_ready:
            self._enqueue(dt)

    def _enqueue(self, dt) -> None:
        self.ready.append(dt)
        self.counts[self._slot[dt.dt_id]] += 1
        if self._on_ready is not None:
            self._on_ready(dt)

    def release(self, dt_id: int) -> None:
        """One blocker of ``dt_id`` resolved; enqueue when count hits zero."""
        blockers = self.blockers
        n = blockers.get(dt_id)
        if n is None:
            return  # consumer lives on another rank
        blockers[dt_id] = n = n - 1
        if n == 0:
            self._enqueue(self._tasks[dt_id])
        elif n < 0:
            raise RuntimeError(f"blocker count of task {dt_id} went negative")

    def pop(self, slot: int, key=None) -> object | None:
        """Remove and return a ready task of kind ``slot``, or ``None``.

        Without ``key``: the oldest one (FIFO within the kind).  With it:
        the highest-scoring one, ties kept in queue order.
        """
        counts = self.counts
        if not counts[slot]:
            return None
        ready = self.ready
        if key is None and counts[slot] == len(ready):
            i = 0  # every ready task has this kind
        else:
            kind_slot = self._slot
            best = None
            for j, dt in enumerate(ready):
                if kind_slot[dt.dt_id] != slot:
                    continue
                if key is None:
                    i = j
                    break
                score = key(dt)
                if best is None or score > best:
                    best, i = score, j
        counts[slot] -= 1
        return ready.pop(i)

    def requeue_front(self, dt) -> None:
        """Put a retried task back at the head of the queue."""
        self.ready.insert(0, dt)
        self.counts[self._slot[dt.dt_id]] += 1

    def drain(self) -> list:
        """Remove and return every ready task, in queue order."""
        out = self.ready[:]
        self.ready.clear()
        self.counts[:] = [0] * len(KIND_SLOT)
        return out


@dataclasses.dataclass
class StepContext:
    """Everything one timestep's engines share: DWs, tags, readiness.

    Built afresh by ``execute_timestep`` and handed to the comm/offload
    engines, so no per-step state leaks onto the scheduler object
    itself.
    """

    step: int
    time: float
    dt_value: float
    old_dw: object | None
    new_dw: object
    bootstrap: bool
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
        #: Whether spans are recorded (read once: hot path).
        self._tracing = self.trace.enabled
        self.stats = SchedulerStats()
        #: Recovery intervals put on the timeline (watchdog aborts, MPE
        #: fallbacks, stragglers), counted whether or not tracing is on.
        self.recovery_spans = 0
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
        #: ``ReadinessTracker.pop`` key for step 3(b)ii "select a ready
        #: offloadable task" — see :mod:`repro.core.schedulers.selection`.
        self.select_key = select_key(select_policy, graph, rank)
        #: The running timestep's engines (comm, then offload if any);
        #: a :class:`DeadlockError` report lists what they await.
        self.step_engines: tuple = ()
        #: The task-lifecycle event bus; the validator, when given, is
        #: its only subscriber.
        self.lifecycle = TaskLifecycle(clock=sim)
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

    @functools.cached_property
    def plan(self) -> RankPlan:
        """This rank's :class:`RankPlan`, built on the first timestep."""
        return RankPlan(self.graph, self.rank, self.costs, self.scrub)

    @functools.cached_property
    def slabs(self) -> SlabTable:
        """This rank's :class:`SlabTable`, built on the first real-mode
        timestep and filled as its slabs are first moved."""
        return SlabTable()

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
        plan = self.plan
        self.lifecycle.begin_step(graph.local_tasks(rank), step=step)
        return StepContext(
            step=step,
            time=time,
            dt_value=dt_value,
            old_dw=old_dw,
            new_dw=new_dw,
            bootstrap=bootstrap,
            tracker=ReadinessTracker(plan, on_ready=self._mark_ready),
            remaining=set(plan.tasks),
            tag_base=step * graph.num_tags,
            next_tag_base=(step + 1) * graph.num_tags,
        )

    def finish_task(self, st: StepContext, comm, dt) -> None:
        """Retire a completed task: queue its sends and copies on the
        :class:`~repro.core.schedulers.commengine.CommEngine`, release
        its dependents, and count its old-DW reads for scrubbing, all
        from the task's :class:`RankPlan` entry."""
        self.lifecycle.retire(dt)
        self.stats.tasks_run += 1
        st.remaining.discard(dt.dt_id)
        comm.flush_stash(dt)
        work, dependents, old_reads = self.plan.retire[dt.dt_id]
        push = comm.push
        for item in work:
            push(item)
        release = st.tracker.release
        for dep_id in dependents:
            release(dep_id)
        for key in old_reads:
            comm.consume_old(key)

    def _ctx(self, patch, st: StepContext) -> TaskContext:
        return TaskContext(
            grid=self.graph.grid,
            patch=patch,
            old_dw=st.old_dw,
            new_dw=st.new_dw,
            time=st.time,
            dt=st.dt_value,
            step=st.step,
        )
