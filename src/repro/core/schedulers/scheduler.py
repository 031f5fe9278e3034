"""The Sunway-specific task scheduler (paper Sec. V).

One rank's scheduler drives one timestep of the compiled task graph as a
DES process, implementing the MPE task scheduler of Sec. V-C: post
receives (3a), send locally-owned old-DW ghost slabs, then loop retiring
completed kernels, dispatching ready kernels onto the CPE cluster or the
MPE and interleaving MPI tests, ghost copies, unpacks and reductions (3b-3d).

This module is only the *orchestrator*; the machinery lives in layered
engines (see ``docs/ARCHITECTURE.md`` for the full picture):

* :mod:`~repro.core.schedulers.lifecycle` — the task state machine
  and the event bus the validator observes (counters are bumped where
  they happen, not on the bus);
* :mod:`~repro.core.schedulers.commengine` — recv posting, ghost
  pack/send/unpack, local copies, reductions, scrub accounting;
* :mod:`~repro.core.schedulers.offload` — CPE flight tracking, the
  watchdog/retry/MPE-fallback recovery ladder with its per-task failure
  counts, the memory-interference debt model of Sec. VII-C, and the
  spans of all of these;
* :mod:`~repro.core.schedulers.selection` — ready-queue ordering
  policies (``fifo`` / ``most_messages``).

The paper's modes (Sec. V-C last paragraph) differ in where a kernel
runs and whether the MPE waits for it.  The constructor — the only place
a mode string is interpreted — resolves them to the fields ``offloads``,
``blocking`` and ``num_groups`` that :meth:`SunwayScheduler.
_dispatch_kernels` reads:

* ``async``  — offloads without blocking, one slot per CPE group; MPE
  work overlaps the kernel and is charged interference debt on retirement.
* ``sync``   — offloads and blocks: the MPE spins on the completion flag
  of its one slot; nothing overlaps, debt is structurally zero.
* ``mpe_only`` — blocks without offloading: the MPE runs the kernel.
"""

from __future__ import annotations

import typing as _t

from repro.core.datawarehouse import DataWarehouse
from repro.core.schedulers.base import (
    KERNEL_SLOT,
    MPE_SLOT,
    REDUCTION_SLOT,
    DeadlockError,
    SchedulerCore,
    StepContext,
)
from repro.core.schedulers.commengine import CommEngine
from repro.core.schedulers.lifecycle import TaskState
from repro.core.schedulers.offload import InterferenceModel, OffloadEngine
from repro.core.task import DetailedTask
from repro.des.event import Timeout

MODES = ("async", "sync", "mpe_only")


class SunwayScheduler(SchedulerCore):
    """Executes one rank's share of a task graph, timestep by timestep."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        mode = self.mode
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        #: Where kernels run (CPE cluster or MPE), whether the MPE waits for
        #: each one, and how many offload slots it fills: one per CPE group
        #: (the Sec. IX grouping extension; the paper uses one) unless it
        #: waits.
        self.offloads = mode != "mpe_only"
        self.blocking = mode != "async"
        self.num_groups = self.athread.num_groups if mode == "async" else 1
        #: The watchdog only arms when a kernel can actually hang —
        #: timeout events per wait iteration are not free.
        self._watchdog = (
            self.policy is not None and self.faults is not None and self.faults.can_hang
        )
        #: Shared-memory-controller interference debt (persists across
        #: steps; structurally idle outside async mode).
        self.interference_model = InterferenceModel(self.interference)

    # ------------------------------------------------------------------ helpers
    def _mpe(self, label: str, cost: float, dt: DetailedTask | None = None) -> float | Timeout:
        """Charge ``cost`` seconds of MPE time; the caller yields the result.

        Returns ``cost`` itself, a float sleep for the DES process
        (:mod:`repro.des.process`).  With tracing on it returns a
        :class:`~repro.des.event.Timeout` instead, whose first callback
        records the span ``label`` (``label:task`` when ``dt`` is given)
        when the sleep ends, just before the process resumes; the span
        name is only built then.

        While a kernel is in flight (async mode), MPE bulk work competes
        with CPE DMA for the shared memory controller: the busy time
        feeds the :class:`InterferenceModel`'s debt pool.  Adding it
        before the sleep is exact: only this rank's scheduler process
        touches the model, and that process is suspended for the whole
        sleep.
        """
        im = self.interference_model
        if im.kernel_inflight:
            im.overlap_busy += cost
        if not self._tracing:
            return cost
        sim = self.sim
        t0 = sim.now
        name = label if dt is None else f"{label}:{dt.name}"
        sleep = sim.timeout(cost)
        sleep._add_callback(lambda _ev: self.trace.record(self.rank, "mpe", name, t0, sim.now))
        return sleep

    def run_mpe_part(self, st: StepContext, dt: DetailedTask) -> float | Timeout | None:
        """Run a task's serial MPE preparation part once (step 3b iii).

        Returns the MPE charge for the caller to yield, or ``None`` when
        the part costs nothing.
        """
        cost = self.costs.mpe_part_time(dt.task, dt.patch, self.graph.grid)
        if cost > 0 and self.real and dt.task.mpe_action is not None:
            dt.task.mpe_action(self._ctx(dt.patch, st))
        st.prepared.add(dt.dt_id)
        return self._mpe("mpe-part", cost, dt) if cost > 0 else None

    def kernel_action(self, st: StepContext, dt: DetailedTask):
        """The task's real numeric action bound to this step's context."""
        if not self.real or dt.task.action is None:
            return None
        ctx = self._ctx(dt.patch, st)
        return lambda: dt.task.action(ctx)

    def _run_mpe_task(self, st, comm, nxt: DetailedTask) -> _t.Generator:
        """(3d) small MPE-kind task: select, prepare, execute, finish."""
        self.lifecycle.transition(nxt, TaskState.DISPATCHED)
        yield self._mpe("task-select", self.costs.sched.task_select)
        if nxt.dt_id not in st.prepared:
            part = self.run_mpe_part(st, nxt)
            if part is not None:
                yield part
        self.lifecycle.transition(nxt, TaskState.RUNNING)
        action = self.kernel_action(st, nxt)
        if action is not None:
            action()
        yield self._mpe("mpe-task", self.costs.mpe_task_time(nxt.task, nxt.patch), nxt)
        self.finish_task(st, comm, nxt)

    def _dispatch_kernels(self, st, comm, offload) -> _t.Generator:
        """Select and prepare ready kernels for free slots (steps 3b i-iv),
        then offload each (``sync`` spins until it completes) or, in
        ``mpe_only`` mode, run and retire it on the MPE."""
        progressed = False
        inflight = offload.inflight
        for g in range(self.num_groups):
            if g in inflight:
                continue
            nxt = st.tracker.pop(KERNEL_SLOT, key=self.select_key)
            if nxt is None:
                break
            self.lifecycle.transition(
                nxt, TaskState.DISPATCHED, backend="cpe" if self.offloads else "mpe"
            )
            yield self._mpe("task-select", self.costs.sched.task_select)
            if nxt.dt_id not in st.prepared:
                part = self.run_mpe_part(st, nxt)
                if part is not None:
                    yield part
            progressed = True
            if not self.offloads:
                self.lifecycle.transition(nxt, TaskState.RUNNING, backend="mpe")
                self.stats.kernels_on_mpe += 1
                action = self.kernel_action(st, nxt)
                if action is not None:
                    action()
                yield self._mpe("mpe-kernel", self.costs.mpe_kernel_time(nxt.task, nxt.patch), nxt)
                # mpe_only counts flops per execution (no offload retry dedup)
                self.stats.kernel_flops += self.costs.kernel_flops(nxt.task, nxt.patch)
                self.finish_task(st, comm, nxt)
                break
            offload.launch(nxt, g)
            if self.blocking:
                yield from offload.spin_to_completion(g)
                break
        return progressed

    def _idle_wait(self, st, comm, offload) -> _t.Generator:
        """Nothing runnable: block on the next interesting event."""
        events = offload.wait_events()
        events.extend(comm.wait_events())
        # a stuck kernel's event never fires — wake at the nearest
        # watchdog deadline instead of sleeping forever
        deadline = offload.deadline_event()
        if deadline is not None:
            events.append(deadline)
        if not events:
            where = f"step {st.step}" if st.step else "initialization"
            raise DeadlockError(
                f"rank {self.rank} {where}: {len(st.remaining)} tasks stuck, "
                f"no events to wait on (task-graph bug?)"
            )
        t0 = self.sim.now
        yield self.sim.any_of(events)
        self.stats.idle_wait += self.sim.now - t0

    # ------------------------------------------------------------------ timestep
    def execute_timestep(
        self,
        step: int,
        time: float,
        dt_value: float,
        old_dw: DataWarehouse | None,
        new_dw: DataWarehouse,
        bootstrap: bool = False,
    ) -> _t.Generator:
        """DES process: run every local detailed task of one timestep.

        ``bootstrap`` marks the first timestep after initialization: the
        old-DW ghost slabs were produced by the init graph, so their
        cross-step messages are sent at step start instead of having been
        posted by the previous timestep.
        """
        st = self._begin_step(step, time, dt_value, old_dw, new_dw, bootstrap)
        comm = CommEngine(self, st)
        offload = OffloadEngine(self, st, comm)
        self.step_engines = (comm, offload)

        yield from comm.post_recvs()
        comm.queue_startup()
        # prune cross-step sends that completed during earlier steps
        self._carryover_sends = [r for r in self._carryover_sends if not r.complete]

        # the plain-function guards in front of each `yield from` keep the
        # hot loop from building a delegate generator per engine per
        # iteration when there is nothing to do (the monolith's inlined
        # blocks had that property for free); MPE charges are plain
        # floats yielded straight to the DES
        tracker = st.tracker
        ready, counts = tracker.ready, tracker.counts
        work = comm.work
        reg = self.telemetry
        num_groups = self.num_groups
        overlaps = not self.blocking
        while st.remaining or work:
            progressed = False
            if reg is not None:
                reg.observe("sched.ready_depth", len(ready))
                reg.observe("cpe.inflight", len(offload.inflight))
                reg.observe("comm.workq_depth", len(work))

            # (3c) test MPI: harvest completed receives
            harvested = comm.harvest_recvs()
            if harvested is not None:
                yield self._mpe("mpi-test", self.costs.sched.mpi_test)
                comm.queue_unpacks(harvested)
                progressed = True
            # completed allreduces -> finalize reduction tasks
            if comm.pending_reductions and (yield from comm.finish_reductions()):
                progressed = True
            if offload.inflight:
                # (3b) completion flag set: retire finished offloads
                if offload.any_done() and (yield from offload.retire_completed()):
                    progressed = True
                # watchdog: abort offload slots whose completion flag
                # never came (hung CPE); armed only when kernels can hang
                if self._watchdog and (yield from offload.watchdog()):
                    progressed = True
            # (3b) dispatch ready kernels onto free offload slots
            if counts[KERNEL_SLOT] and len(offload.inflight) < num_groups:
                if (yield from self._dispatch_kernels(st, comm, offload)):
                    progressed = True

            # (3d) other MPE tasks: small kernels and reductions
            if counts[MPE_SLOT]:
                yield from self._run_mpe_task(st, comm, tracker.pop(MPE_SLOT))
                progressed = True
            if counts[REDUCTION_SLOT]:
                yield from comm.start_reduction(tracker.pop(REDUCTION_SLOT))
                progressed = True

            # one queued MPE work item (copies, packs, unpacks)
            if work:
                kind, payload, cost = work.popleft()
                yield self._mpe(kind, cost)
                comm.apply(kind, payload)
                progressed = True
            elif overlaps and offload.inflight and counts[KERNEL_SLOT]:
                # idle MPE during a kernel: pre-process the MPE part of
                # the next ready kernel so it launches instantly (step 3d
                # "small kernels").
                cand = offload.prefetch_candidate()
                if cand is not None:
                    part = self.run_mpe_part(st, cand)
                    if part is not None:
                        yield part
                    progressed = True

            if progressed:
                continue
            yield from self._idle_wait(st, comm, offload)

        # drain outgoing sends before declaring the timestep done
        yield from comm.drain_sends()
        self.step_engines = ()
