"""Communication engine: MPI recvs, ghost pack/send/unpack, copies,
reductions, and old-DW scrub accounting.

One :class:`CommEngine` lives for one timestep (paper steps 3a, 3c, 3d)
and serves both scheduler families.  It costs the communication work
items — local ghost copies, pack+send, unpack — and hands them to a work
sink: the Sunway MPE loop's own queue (:attr:`CommEngine.work`) or the
unified scheduler's worker-pool run queue.  It also posts the step's
non-blocking receives, watches pending allreduces, and performs the
data-warehouse effects when an item executes.  The scheduler charges
the item's time on whichever core runs it and then calls
:meth:`CommEngine.apply`.  The engine bumps the scheduler's message,
byte, copy, reduction, scrub and drain-idle counters where each happens,
and announces receives, copies and scrubs on the lifecycle bus for the
schedule validator.
"""

from __future__ import annotations

import collections
import functools
import typing as _t

from repro.core.schedulers.lifecycle import TaskState
from repro.core.task import DetailedTask
from repro.core.taskgraph import CopySpec, MessageSpec
from repro.core.variables import CCVariable

#: :meth:`SlabTable.slices` ends: a slab's source or destination variable.
SRC, DST = 0, 1


class SlabTable:
    """One rank's ghost-slab geometry, compiled once.

    Maps each copy, send and receive spec, seen from its source
    (:data:`SRC`) or destination (:data:`DST`) variable, to the
    :meth:`~repro.core.variables.CCVariable.local_slices` of the spec's
    region in that variable's ghosted array.  An entry is compiled,
    bounds check included, on its first use and read by every later
    timestep.  Entries are kept per ghost width, so a variable allocated
    with another width gets its own entry, never another width's
    slices.  Real-mode schedulers build one table per rank lazily
    (:attr:`SchedulerCore.slabs`); model mode builds none.
    """

    def __init__(self) -> None:
        #: ghost width -> {``id(spec) * 2 + end``: slices}
        self._by_width: dict[int, dict[int, tuple[slice, slice, slice]]] = {}

    def __len__(self) -> int:
        return sum(len(table) for table in self._by_width.values())

    def slices(self, spec, end: int, var: CCVariable) -> tuple[slice, slice, slice]:
        """The slices of ``spec.region`` in ``var`` (its ``end`` variable)."""
        table = self._by_width.get(var.ghosts)
        if table is None:
            table = self._by_width[var.ghosts] = {}
        key = id(spec) * 2 + end
        sl = table.get(key)
        if sl is None:
            sl = table[key] = var.local_slices(spec.region)
        return sl


class CommEngine:
    """Per-timestep communication state and effects for one rank."""

    def __init__(self, sched, st, sink: _t.Callable[[tuple], None] | None = None):
        self.sched = sched
        self.st = st
        self.plan = plan = sched.plan
        #: MPE work queue: (kind, payload, cost) items.
        self.work: collections.deque = collections.deque()
        #: Where queued items go: :attr:`work` unless the scheduler
        #: drains its own run queue.
        self.push = self.work.append if sink is None else sink
        #: Ghost slabs whose destination patch has no producer output yet:
        #: ``(spec, packed slab)`` per ``(dw, label, patch)``.
        self.pending_unpacks: dict[tuple[str, str, int], list] = {}
        #: Posted receives not yet harvested: (spec, unpack cost, request).
        self.recv_watch: list[tuple[MessageSpec, float, object]] = []
        #: The fabric's per-rank count of scheduled receive completions,
        #: and this rank's entry at the last scan of :attr:`recv_watch`
        #: (-1 forces the first scan).
        self._recvs_completed = sched.comm.fabric.recvs_completed
        self._recvs_seen = -1
        #: In-flight allreduces: (request, task).
        self.pending_reductions: list[tuple[object, DetailedTask]] = []
        #: This step's outgoing sends (drained at step end).
        self.send_reqs: list = []
        #: Old-DW variables die after their last consumer reads them
        #: (the startup sends' reads are counted in already).
        self.scrub_counts: dict[tuple[str, int], int] = dict(
            plan.bootstrap_scrub_counts if st.bootstrap else plan.scrub_counts
        )

    # ------------------------------------------------------------ queueing
    def queue_startup(self) -> None:
        """Startup sends and copies: old-DW ghost data (and bootstrap)."""
        plan = self.plan
        push = self.push
        for item in plan.bootstrap_startup if self.st.bootstrap else plan.startup:
            push(item)

    def queue_unpacks(self, harvested: list) -> None:
        """Queue one unpack per harvested ``(spec, cost, payload)``."""
        push = self.push
        for spec, cost, payload in harvested:
            push(("unpack", (spec, payload), cost))

    # ------------------------------------------------------------ receives
    def post_recvs(self) -> _t.Generator:
        """Post non-blocking receives for every remote input (step 3a)."""
        sched, st = self.sched, self.st
        my_recvs = self.plan.recvs
        if my_recvs:
            yield sched._mpe("post-recvs", sched.costs.sched.recv_post * len(my_recvs))
            for spec, cost in my_recvs:
                req = sched.comm.irecv(source=spec.from_rank, tag=st.tag_base + spec.tag)
                self.recv_watch.append((spec, cost, req))

    def harvest_recvs(self) -> list | None:
        """(3c) test MPI: collect completed receives (plain, no yields).

        The fabric counts scheduled receive completions per destination
        rank; :attr:`recv_watch` is rescanned only when this rank's count
        moved since the last scan, so an idle test costs O(1).
        """
        done = self._recvs_completed[self.sched.rank]
        if done == self._recvs_seen:
            return None
        self._recvs_seen = done
        still = []
        harvested = []
        for spec, cost, req in self.recv_watch:
            if req.complete:
                harvested.append((spec, cost, req.value))
            else:
                still.append((spec, cost, req))
        if not harvested:
            return None
        self.recv_watch = still
        return harvested

    def awaiting(self) -> list[str]:
        """The posted receives not yet harvested, for a deadlock report."""
        return [f"recv from rank {req.source} tag {req.tag}" for _s, _c, req in self.recv_watch]

    # ------------------------------------------------------------ scrubbing
    def consume_old(self, key: tuple[str, int]) -> None:
        """One reader of old-DW variable ``key = (label, patch)`` is done;
        scrub the variable after its last reader."""
        left = self.scrub_counts.get(key)
        if left is None:
            return  # scrubbing off, or not an old-DW variable of this rank
        if left <= 1:
            del self.scrub_counts[key]
            sched = self.sched
            label_name, pid = key
            if sched.real and self.st.old_dw is not None:
                self.st.old_dw.scrub_named(label_name, pid)
            sched.stats.scrubbed += 1
            if sched.lifecycle.observed:
                sched.lifecycle.emit("scrubbed", label=label_name, patch=pid)
        else:
            self.scrub_counts[key] = left - 1

    # ------------------------------------------------------------ effects
    def _stash(self, spec, payload) -> None:
        """Hold a packed slab whose destination patch's producer has not
        run yet; :meth:`flush_stash` writes it when the producer retires."""
        key = (spec.dw, spec.label.name, spec.to_patch.patch_id)
        self.pending_unpacks.setdefault(key, []).append((spec, payload))

    def apply_copy(self, spec: CopySpec) -> None:
        sched, st = self.sched, self.st
        sched.stats.local_copies += 1
        if sched.lifecycle.observed:
            sched.lifecycle.emit("local-copy", spec.consumer)
        if sched.real:
            slabs = sched.slabs
            dw = st.dw_for(spec.dw)
            src = dw.get(spec.label, spec.from_patch)
            src_slices = slabs.slices(spec, SRC, src)
            if dw.exists(spec.label, spec.to_patch):
                # slab to slab, no packed temporary
                dst = dw.get(spec.label, spec.to_patch)
                dst.data[slabs.slices(spec, DST, dst)] = src.data[src_slices]
            else:
                self._stash(spec, src.get_region(spec.region, src_slices))
        if spec.dw == "old":
            self.consume_old((spec.label.name, spec.from_patch.patch_id))

    def apply_send(self, spec: MessageSpec, next_step: bool, src_dw: str) -> None:
        sched, st = self.sched, self.st
        payload = None
        if sched.real:
            src = st.dw_for(src_dw).get(spec.label, spec.from_patch)
            payload = src.get_region(spec.region, sched.slabs.slices(spec, SRC, src))
        req = sched.comm.isend(
            dest=spec.to_rank,
            tag=(st.next_tag_base if next_step else st.tag_base) + spec.tag,
            nbytes=spec.nbytes,
            payload=payload,
        )
        if next_step:
            # consumed by the next timestep: completion is tracked
            # across the step boundary, never blocking this step
            sched._carryover_sends.append(req)
        else:
            self.send_reqs.append(req)
        stats = sched.stats
        stats.messages_sent += 1
        stats.bytes_sent += spec.nbytes
        if src_dw == "old":
            self.consume_old((spec.label.name, spec.from_patch.patch_id))

    def apply_unpack(self, spec: MessageSpec, payload) -> None:
        sched, st = self.sched, self.st
        stats = sched.stats
        stats.messages_received += 1
        stats.bytes_received += spec.nbytes
        if sched.lifecycle.observed:
            sched.lifecycle.emit("msg-recv", spec.consumer)
        if sched.real:
            dw = st.dw_for(spec.dw)
            if dw.exists(spec.label, spec.to_patch):
                dst = dw.get(spec.label, spec.to_patch)
                dst.set_region(spec.region, payload, sched.slabs.slices(spec, DST, dst))
            else:
                self._stash(spec, payload)
        st.tracker.release(spec.consumer.dt_id)

    def flush_stash(self, dt: DetailedTask) -> None:
        sched = self.sched
        if not sched.real or dt.patch is None:
            return
        for label in dt.task.computes:
            stashed = self.pending_unpacks.pop(("new", label.name, dt.patch.patch_id), None)
            if stashed:
                slabs = sched.slabs
                dst = self.st.new_dw.get(label, dt.patch)
                for spec, payload in stashed:
                    dst.set_region(spec.region, payload, slabs.slices(spec, DST, dst))

    def apply(self, kind: str, payload) -> None:
        """Apply one charged work item's effects (copy / send / unpack)."""
        if kind == "copy":
            self.apply_copy(payload)
            self.st.tracker.release(payload.consumer.dt_id)
        elif kind == "send":
            self.apply_send(*payload)
        elif kind == "unpack":
            self.apply_unpack(*payload)

    # ------------------------------------------------------------ reductions
    def local_partial(self, dt: DetailedTask) -> float:
        """Fold a reduction task's value over this rank's patches."""
        sched = self.sched
        if not sched.real or dt.task.action is None:
            return 0.0
        values = [dt.task.action(sched._ctx(p, self.st)) for p in sched._local_patches]
        return functools.reduce(dt.task.reduction_op, values) if values else 0.0

    def start_reduction(self, dt: DetailedTask) -> _t.Generator:
        """Combine local patch values and post the allreduce (step 3d)."""
        sched = self.sched
        sched.lifecycle.transition(dt, TaskState.DISPATCHED)
        sched.lifecycle.transition(dt, TaskState.RUNNING)
        partial = self.local_partial(dt)
        yield sched._mpe(
            "reduce-local", sched.costs.reduction_local_time(len(sched._local_patches)), dt
        )
        req = sched.comm.iallreduce(partial, op=dt.task.reduction_op)
        self.pending_reductions.append((req, dt))

    def finish_reductions(self) -> _t.Generator:
        """Finalize reduction tasks whose allreduce completed."""
        sched, st = self.sched, self.st
        done_reds = [t for t in self.pending_reductions if t[0].complete]
        if not done_reds:
            return False
        for req, dt in done_reds:
            self.pending_reductions.remove((req, dt))
            label = dt.task.computes[0]
            st.new_dw.put_reduction(label, req.value)
            yield sched._mpe("reduce-finish", sched.costs.sched.mpi_test, dt)
            sched.finish_task(st, self, dt)
            sched.stats.reductions += 1
        return True

    # ------------------------------------------------------------ waiting
    def wait_events(self) -> list:
        """Events an idle MPE can block on: receives and allreduces."""
        events = [req for _s, _c, req in self.recv_watch if not req.complete]
        events.extend(req for req, _d in self.pending_reductions)
        return events

    def drain_sends(self) -> _t.Generator:
        """Block until this step's outgoing sends completed (idle time)."""
        sched = self.sched
        unfinished = [r for r in self.send_reqs if not r.complete]
        if unfinished:
            t0 = sched.sim.now
            yield sched.sim.all_of(unfinished)
            sched.stats.idle_wait += sched.sim.now - t0
