"""Executor backends: where and how a rank's compute kernels run.

The Sunway scheduler loop is backend-agnostic; everything mode-specific
lives behind a backend object with an ``overlaps`` flag, ``num_groups()``
and ``run_kernels()``:

* :class:`CPEBackend` — offload kernels to CPE groups through the
  :class:`~repro.core.schedulers.offload.OffloadEngine`; non-blocking
  (the paper's ``async`` mode, MPE work overlaps the kernel) or blocking
  (``sync`` mode, the MPE spins on the completion flag);
* :class:`MPEBackend` — run kernels on the management core itself
  (``mpe_only`` mode).

Beside them, :class:`WorkerPool` is one timestep's pool of simulated host
worker threads draining one shared run queue of tasks and
:class:`~repro.core.schedulers.commengine.CommEngine` items, modelling
Uintah's Unified Scheduler for :class:`~repro.core.schedulers.unified.
UnifiedHostScheduler`.

No ``mode`` string crosses this boundary: schedulers resolve the mode to
a backend object once, at construction.
"""

from __future__ import annotations

import typing as _t

from repro.core.schedulers.lifecycle import TaskState
from repro.des.resources import Store


class CPEBackend:
    """Offload kernels to the CPE cluster (paper modes async / sync)."""

    def __init__(self, blocking: bool = False):
        self.blocking = blocking
        self.overlaps = not blocking

    def num_groups(self, athread) -> int:
        # One offload slot per CPE group; the paper's configuration has a
        # single group (whole-cluster offload).  The CPE-grouping
        # extension (Sec. IX future work) runs several patches at once.
        # Spinning leaves no concurrency to exploit: one slot.
        return 1 if self.blocking else athread.num_groups

    def run_kernels(self, sched, st, comm, offload) -> _t.Generator:
        """Offload ready kernels onto free CPE groups (steps 3b i-iv)."""
        progressed = False
        for g in range(offload.num_groups):
            if g in offload.inflight:
                continue
            nxt = st.tracker.pop_ready(offload.is_offloadable, key=sched.select.key_fn)
            if nxt is None:
                break
            sched.lifecycle.transition(nxt, TaskState.DISPATCHED, backend="cpe")
            yield from sched._mpe("task-select", sched.costs.sched.task_select)
            if nxt.dt_id not in st.prepared:
                yield from sched.run_mpe_part(st, nxt)
            offload.launch(nxt, g)
            progressed = True
            if self.blocking:
                yield from offload.spin_to_completion(g)
                break
        return progressed


class MPEBackend:
    """Run kernels on the management core itself (paper mode mpe_only)."""

    overlaps = False

    def num_groups(self, athread) -> int:
        return 1

    def run_kernels(self, sched, st, comm, offload) -> _t.Generator:
        nxt = st.tracker.pop_ready(offload.is_offloadable, key=sched.select.key_fn)
        if nxt is None:
            return False
        sched.lifecycle.transition(nxt, TaskState.DISPATCHED, backend="mpe")
        yield from sched._mpe("task-select", sched.costs.sched.task_select)
        if nxt.dt_id not in st.prepared:
            yield from sched.run_mpe_part(st, nxt)
        sched.lifecycle.transition(nxt, TaskState.RUNNING, backend="mpe")
        action = sched.kernel_action(st, nxt)
        if action is not None:
            action()
        yield from sched._mpe(
            f"mpe-kernel:{nxt.name}", sched.costs.mpe_kernel_time(nxt.task, nxt.patch)
        )
        # mpe_only counts flops per execution (no offload retry dedup)
        sched.lifecycle.emit("flops", nxt, n=sched.costs.kernel_flops(nxt.task, nxt.patch))
        sched.finish_task(st, comm, nxt)
        return True


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
