"""The Sunway-specific task scheduler (paper Sec. V).

One rank's scheduler drives one timestep of the compiled task graph as a
DES process, implementing the MPE task scheduler of Sec. V-C: post
receives (3a), send locally-owned old-DW ghost slabs, then loop retiring
completed kernels, dispatching ready work onto the execution backend and
interleaving MPI tests, ghost copies, unpacks and reductions (3b-3d).

This module is only the *orchestrator*; the machinery lives in layered
engines (see ``docs/ARCHITECTURE.md`` for the full picture):

* :mod:`~repro.core.schedulers.lifecycle` — the task state machine and
  event bus that stats, tracing and resilience subscribe to;
* :mod:`~repro.core.schedulers.commengine` — recv posting, ghost
  pack/send/unpack, local copies, reductions, scrub accounting;
* :mod:`~repro.core.schedulers.offload` — CPE flight tracking, the
  watchdog/retry/MPE-fallback recovery ladder, and the
  memory-interference debt model of Sec. VII-C;
* :mod:`~repro.core.schedulers.selection` — ready-queue ordering
  strategies (``fifo`` / ``max_dependents`` / ``most_messages`` /
  ``critical_path``);
* :mod:`~repro.core.schedulers.backends` — where kernels execute.

The paper's modes (Sec. V-C last paragraph) map one-to-one onto
backends, resolved once at construction — the only place a mode string
is interpreted:

* ``async``  — non-blocking :class:`CPEBackend`; MPE work overlaps the
  kernel and is charged interference debt on retirement.
* ``sync``   — blocking :class:`CPEBackend`; the MPE spins on the
  completion flag, nothing overlaps, debt is structurally zero.
* ``mpe_only`` — :class:`MPEBackend`; kernels run on the management
  core.
"""

from __future__ import annotations

import typing as _t

from repro.core.datawarehouse import DataWarehouse
from repro.core.schedulers.backends import CPEBackend, MPEBackend
from repro.core.schedulers.base import DeadlockError, SchedulerCore, StepContext
from repro.core.schedulers.commengine import CommEngine
from repro.core.schedulers.lifecycle import TaskState
from repro.core.schedulers.offload import InterferenceModel, OffloadEngine
from repro.core.task import DetailedTask, TaskKind

MODES = ("async", "sync", "mpe_only")

_BACKENDS = {
    "async": lambda: CPEBackend(blocking=False),
    "sync": lambda: CPEBackend(blocking=True),
    "mpe_only": MPEBackend,
}


def _is_mpe_kind(d: DetailedTask) -> bool:
    return d.task.kind is TaskKind.MPE


def _is_reduction(d: DetailedTask) -> bool:
    return d.task.kind is TaskKind.REDUCTION


class SunwayScheduler(SchedulerCore):
    """Executes one rank's share of a task graph, timestep by timestep."""

    def __init__(self, *args, **kwargs):
        mode = kwargs.get("mode", args[6] if len(args) > 6 else "async")
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        super().__init__(*args, **kwargs)
        #: The watchdog only arms when a kernel can actually hang —
        #: timeout events per wait iteration are not free.
        self._watchdog = (
            self.policy is not None and self.faults is not None and self.faults.can_hang
        )
        #: Shared-memory-controller interference debt (persists across
        #: steps; structurally idle outside async mode).
        self.interference_model = InterferenceModel(self.interference)
        #: Kernel execution strategy — the only mode-string resolution.
        self.backend = _BACKENDS[mode]()

    # ------------------------------------------------------------------ helpers
    def _mpe(self, name: str, cost: float) -> _t.Generator:
        """Charge MPE time and trace it.

        While a kernel is in flight (async mode), MPE bulk work competes
        with CPE DMA for the shared memory controller: the busy time
        feeds the :class:`InterferenceModel`'s debt pool.  Spans here are
        traced directly (not via lifecycle events): this is the hottest
        path in the DES loop and carries no task-state information.
        """
        t0 = self.sim.now
        yield self.sim.timeout(cost)
        im = self.interference_model
        if im.kernel_inflight:
            im.overlap_busy += cost
        self.trace.record(self.rank, "mpe", name, t0, self.sim.now)

    def run_mpe_part(self, st: StepContext, dt: DetailedTask) -> _t.Generator:
        """Run a task's serial MPE preparation part once (step 3b iii)."""
        cost = self.costs.mpe_part_time(dt.task, dt.patch, self.graph.grid)
        if cost > 0:
            if self.real and dt.task.mpe_action is not None:
                dt.task.mpe_action(self._ctx(dt.patch, st))
            yield from self._mpe(f"mpe-part:{dt.name}", cost)
        st.prepared.add(dt.dt_id)

    def kernel_action(self, st: StepContext, dt: DetailedTask):
        """The task's real numeric action bound to this step's context."""
        if not self.real or dt.task.action is None:
            return None
        ctx = self._ctx(dt.patch, st)
        return lambda: dt.task.action(ctx)

    def _run_mpe_task(self, st, comm, nxt: DetailedTask) -> _t.Generator:
        """(3d) small MPE-kind task: select, prepare, execute, finish."""
        self.lifecycle.transition(nxt, TaskState.DISPATCHED)
        yield from self._mpe("task-select", self.costs.sched.task_select)
        if nxt.dt_id not in st.prepared:
            yield from self.run_mpe_part(st, nxt)
        self.lifecycle.transition(nxt, TaskState.RUNNING)
        action = self.kernel_action(st, nxt)
        if action is not None:
            action()
        yield from self._mpe(f"mpe-task:{nxt.name}", self.costs.mpe_task_time(nxt.task, nxt.patch))
        self.finish_task(st, comm, nxt)

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
            raise DeadlockError(
                f"rank {self.rank} step {st.step}: {len(st.remaining)} tasks stuck, "
                f"no events to wait on (task-graph bug?)"
            )
        t0 = self.sim.now
        yield self.sim.any_of(events)
        self.lifecycle.emit("idle", seconds=self.sim.now - t0)

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
        backend = self.backend

        yield from comm.post_recvs()
        comm.queue_startup()
        # prune cross-step sends that completed during earlier steps
        self._carryover_sends = [r for r in self._carryover_sends if not r.complete]

        # the plain-function guards in front of each `yield from` keep the
        # hot loop from building a delegate generator per engine per
        # iteration when there is nothing to do (the monolith's inlined
        # blocks had that property for free)
        tracker = st.tracker
        telemetry = self.telemetry
        while st.remaining or comm.work:
            progressed = False
            if telemetry is not None:
                telemetry.on_loop_sample(
                    len(tracker.ready), len(offload.inflight), len(comm.work)
                )

            # (3c) test MPI: harvest completed receives
            harvested = comm.harvest_recvs()
            if harvested is not None:
                yield from comm.unpack_harvested(harvested)
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
            # dispatch ready kernels onto the execution backend
            if tracker.ready and len(offload.inflight) < offload.num_groups:
                if (yield from backend.run_kernels(self, st, comm, offload)):
                    progressed = True

            # (3d) other MPE tasks: small kernels and reductions
            if tracker.ready:
                nxt = tracker.pop_ready(_is_mpe_kind)
                if nxt is not None:
                    yield from self._run_mpe_task(st, comm, nxt)
                    progressed = True
                nxt = tracker.pop_ready(_is_reduction)
                if nxt is not None:
                    yield from comm.start_reduction(nxt)
                    progressed = True

            # one queued MPE work item (copies, packs, unpacks)
            if comm.work:
                kind, payload, cost = comm.work.popleft()
                yield from self._mpe(kind, cost)
                comm.apply(kind, payload)
                progressed = True
            elif backend.overlaps and offload.inflight and tracker.ready:
                # idle MPE during a kernel: pre-process the MPE part of
                # the next ready kernel so it launches instantly (step 3d
                # "small kernels").
                cand = offload.prefetch_candidate()
                if cand is not None:
                    yield from self.run_mpe_part(st, cand)
                    progressed = True

            if progressed:
                continue
            yield from self._idle_wait(st, comm, offload)

        # drain outgoing sends before declaring the timestep done
        yield from comm.drain_sends()
