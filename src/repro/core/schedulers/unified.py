"""A model of Uintah's Unified Scheduler — the paper's motivation.

Paper Sec. II: "The most efficient scheduler in Uintah ... is the
'Unified Scheduler' ... built upon a MPI+thread model, where only one MPI
process is started on each computing node, and multiple threads ... Each
thread controls a CPU core and executes serially a task fed by the
scheduler."  And the challenge: "the Sunway's SW26010 processor has only
one MPE on each CG, which would limit the scheduler to one thread.  Thus
the Unified Scheduler is not able to effectively overlap communications
with computations without a new design."

This module models that scheduler so the claim is measurable: a pool of
``num_threads`` host worker threads (:class:`WorkerPool`) executes ready tasks *and* interleaved
communication work (ghost packing/unpacking, sends, local
copies, reductions) from one shared run queue.  The communication units
come from the same :class:`~repro.core.schedulers.commengine.CommEngine`
the Sunway scheduler uses, with the pool's run queue as its work sink.
With several threads, communication hides behind computation; with the
single thread Sunway's MPE affords, everything serializes — and the CPE
cluster sits unused, because the Unified Scheduler predates the offload
design.

:class:`UnifiedHostScheduler` composes
:class:`~repro.core.schedulers.base.SchedulerCore` with that pool —
it shares the lifecycle/stats/trace wiring with
:class:`~repro.core.schedulers.scheduler.SunwayScheduler` but is *not* a
subclass of it (see ``docs/ARCHITECTURE.md``).  Use it through
:class:`~repro.core.controller.SimulationController` by passing
``scheduler_factory`` (see ``examples/unified_vs_sunway.py``).
"""

from __future__ import annotations

from repro.core.datawarehouse import DataWarehouse
from repro.core.schedulers.base import DeadlockError, SchedulerCore
from repro.core.schedulers.commengine import CommEngine
from repro.core.schedulers.lifecycle import TaskState
from repro.core.task import DetailedTask, TaskKind
from repro.des.resources import Store


class WorkerPool:
    """One timestep's run queue, worker processes, and completion event."""

    def __init__(self, sim, rank: int, num_threads: int):
        self.sim = sim
        self.rank = rank
        self.num_threads = num_threads
        self.runq: Store = Store(sim, name=f"unified-runq-r{rank}")
        self.outstanding = 0
        self.done_event = sim.event(name=f"unified-step-done-r{rank}")
        self.failure: list[BaseException] = []
        self.workers: list = []

    def push(self, unit) -> None:
        self.outstanding += 1
        self.runq.put(unit)

    def maybe_finish(self, drained: bool) -> None:
        """Trigger step completion once nothing remains anywhere."""
        if drained and self.outstanding == 0 and not self.done_event.triggered:
            self.done_event.succeed()

    def spawn_workers(self, handle_unit, is_drained) -> None:
        """Start the worker processes; each drains units until sentinel.

        ``handle_unit(tid, unit)`` is the scheduler-provided generator
        executing one unit; ``is_drained()`` reports whether all tasks
        retired (completion is declared when it holds with zero
        outstanding units).
        """

        def worker(tid: int):
            while True:
                unit = yield self.runq.get()
                if unit is None:  # shutdown sentinel
                    return
                try:
                    yield from handle_unit(tid, unit)
                except BaseException as exc:  # surface through the coordinator
                    self.failure.append(exc)
                    if not self.done_event.triggered:
                        self.done_event.succeed()
                    return
                self.outstanding -= 1
                self.maybe_finish(is_drained())

        self.workers = [
            self.sim.process(worker(t), name=f"unified-w{t}-r{self.rank}")
            for t in range(self.num_threads)
        ]

    def shutdown(self) -> None:
        for _ in self.workers:
            self.runq.put(None)


class UnifiedHostScheduler(SchedulerCore):
    """MPI + host-threads scheduler (no CPE offload).

    Parameters are those of :class:`SchedulerCore` plus ``num_threads``
    — the host cores available to worker threads.  On SW26010 that is 1
    (the MPE); Uintah's production machines give it 16-64.  The ``mode``
    and ``scrub`` arguments are ignored: this scheduler has exactly one
    behaviour, Uintah's.
    """

    def __init__(self, *args, num_threads: int = 1, **kwargs):
        if num_threads < 1:
            raise ValueError(f"need >= 1 worker thread, got {num_threads}")
        kwargs["mode"] = "mpe_only"  # kernels run on host cores
        kwargs["scrub"] = False  # Uintah's scheduler keeps the old DW whole
        super().__init__(*args, **kwargs)
        self.num_threads = num_threads

    def _host_fault_overhead(self, dt: DetailedTask, cost: float) -> float:
        """Extra host-core seconds an injected kernel fault costs here.

        Host threads have no CPE offload slot to abort, so every fault
        resolves by re-running on the same core: a slowdown stretches the
        kernel, a hang burns one completion timeout before the re-run, and
        a DMA-style error wastes the fraction already executed.  Fault-free
        runs draw nothing from the injector's stream.
        """
        if self.faults is None:
            return 0.0
        fault = self.faults.kernel_fault(self.rank, dt.name, cost, self.sim.now)
        if fault is None:
            return 0.0
        if fault.kind == "slowdown":
            if self.policy is not None and fault.factor >= self.policy.straggler_factor:
                self.stats.stragglers_detected += 1
            return cost * (fault.factor - 1.0)
        wasted = cost if fault.kind == "stuck" else fault.error_frac * cost
        if self.policy is None:
            # fault-oblivious: the machine still lost that time, but
            # nothing detects or recovers the failure
            return wasted
        if fault.kind == "stuck":
            self.stats.kernel_timeouts += 1
            wasted = self.policy.kernel_timeout(cost)
        self.stats.kernel_retries += 1
        return wasted

    # The Unified Scheduler replaces the whole per-timestep loop: the
    # worker pool drains one run queue of tasks and communication units.
    # The CommEngine costs and applies the communication units exactly
    # as it does for the Sunway MPE loop; only the queue differs.
    def execute_timestep(
        self,
        step: int,
        time: float,
        dt_value: float,
        old_dw: DataWarehouse | None,
        new_dw: DataWarehouse,
        bootstrap: bool = False,
    ):
        sim, graph, rank = self.sim, self.graph, self.rank
        st = self._begin_step(step, time, dt_value, old_dw, new_dw, bootstrap)
        tracker = st.tracker
        pool = WorkerPool(sim, rank, self.num_threads)
        comm = CommEngine(self, st, sink=pool.push)
        self.step_engines = (comm,)

        def push_ready_tasks() -> None:
            for dt in tracker.drain():
                self.lifecycle.transition(dt, TaskState.DISPATCHED, backend="host")
                pool.push(("task", dt, None))

        def finish_task(dt: DetailedTask) -> None:
            self.finish_task(st, comm, dt)
            push_ready_tasks()
            pool.maybe_finish(not st.remaining)

        # -- receive watchers (event-driven, zero host cost) ---------------
        def recv_watcher(spec, cost, req):
            comm.push(("unpack", (spec, (yield req)), cost))

        for spec, cost in self.plan.recvs:
            req = self.comm.irecv(source=spec.from_rank, tag=st.tag_base + spec.tag)
            comm.recv_watch.append((spec, cost, req))  # named if the step deadlocks
            sim.process(recv_watcher(spec, cost, req), name=f"recvw-r{rank}")

        comm.queue_startup()
        self._carryover_sends = [r for r in self._carryover_sends if not r.complete]
        push_ready_tasks()

        # -- worker thread bodies ------------------------------------------
        def thread_mpe(tid: int, name: str, cost: float):
            t0 = sim.now
            yield sim.timeout(cost)
            self.trace.record(rank, f"thread{tid}", name, t0, sim.now)

        def execute_task(tid: int, dt: DetailedTask):
            task = dt.task
            kernel = task.kind is TaskKind.CPE_KERNEL
            self.lifecycle.transition(dt, TaskState.RUNNING, backend="mpe" if kernel else None)
            if kernel:
                self.stats.kernels_on_mpe += 1
            yield from thread_mpe(tid, "task-select", self.costs.sched.task_select)
            mpe_cost = self.costs.mpe_part_time(task, dt.patch, graph.grid)
            if mpe_cost > 0:
                if self.real and task.mpe_action is not None:
                    task.mpe_action(self._ctx(dt.patch, st))
                yield from thread_mpe(tid, f"mpe-part:{dt.name}", mpe_cost)
            if task.kind is TaskKind.REDUCTION:
                partial = comm.local_partial(dt)
                yield from thread_mpe(
                    tid,
                    f"reduce-local:{dt.name}",
                    self.costs.reduction_local_time(len(self._local_patches)),
                )
                req = self.comm.iallreduce(partial, op=task.reduction_op)

                def reduce_watcher(req=req, dt=dt):
                    value = yield req
                    st.new_dw.put_reduction(dt.task.computes[0], value)
                    self.stats.reductions += 1
                    finish_task(dt)

                sim.process(reduce_watcher(), name=f"redw-r{rank}")
                return  # finish_task happens at allreduce completion
            # compute kernel on the host core
            if self.real and task.action is not None:
                task.action(self._ctx(dt.patch, st))
            if kernel:
                cost = self.costs.mpe_kernel_time(task, dt.patch)
                self.stats.kernel_flops += self.costs.kernel_flops(task, dt.patch)
                cost += self._host_fault_overhead(dt, cost)
            else:
                cost = self.costs.mpe_task_time(task, dt.patch)
            yield from thread_mpe(tid, f"mpe-kernel:{dt.name}", cost)
            finish_task(dt)

        def handle_unit(tid: int, unit):
            kind, payload, cost = unit
            if kind == "task":
                yield from execute_task(tid, payload)
            else:
                yield from thread_mpe(tid, kind, cost)
                comm.apply(kind, payload)
                push_ready_tasks()

        pool.spawn_workers(handle_unit, lambda: not st.remaining)

        # -- coordinator: wait for completion, then shut workers down ------
        yield pool.done_event
        if pool.failure:
            raise pool.failure[0]
        if st.remaining:
            raise DeadlockError(
                f"unified scheduler rank {rank} step {step}: "
                f"{len(st.remaining)} tasks stuck"
            )
        pool.shutdown()
        # drain this step's sends; unlike CommEngine.drain_sends this
        # records no idle time, which counts a blocked MPE loop
        unfinished = [r for r in comm.send_reqs if not r.complete]
        if unfinished:
            yield sim.all_of(unfinished)
        self.step_engines = ()
