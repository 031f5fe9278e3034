"""CPE offload engine: flights, completion flags, watchdog, fallback.

Tracks every kernel offloaded to a CPE group as a :class:`Flight`
(step 3b of the paper's scheduler), retires completed flights, arms the
completion-timeout watchdog when kernels can hang, and runs the
re-offload / MPE-fallback recovery ladder: the engine counts each
task's failed attempts this timestep and re-offloads while the
resilience policy's ``max_offload_retries`` allows.  It records its own
spans (kernels, interference debt, stragglers, watchdog aborts, sync
spins) on the tracer when tracing is on.

:class:`InterferenceModel` is the memory-interference debt model: MPE
and CPEs share one memory controller, so MPE bulk traffic overlapped
with an in-flight kernel is charged back as extra kernel time on
retirement (factor ``interference``); see ``docs/ARCHITECTURE.md`` and
the paper's Sec. VII-C observation on the vectorized kernel.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.core.schedulers.base import KERNEL_SLOT
from repro.core.schedulers.lifecycle import TaskState
from repro.core.task import DetailedTask, TaskKind
from repro.sunway.athread import CompletionFlag


class InterferenceModel:
    """Accumulates MPE busy time overlapped with in-flight kernels.

    Every charged MPE interval (``SchedulerCore._mpe``) made while a
    kernel is in flight adds to the debt pool, and the retiring
    kernel pays ``factor * pool`` as extra duration.  With several CPE
    groups the pooled debt goes to whichever kernel retires first (a
    pooled approximation; exact with one group).
    """

    def __init__(self, factor: float):
        self.factor = factor
        #: True while at least one kernel is offloaded.
        self.kernel_inflight = False
        self.overlap_busy = 0.0

    def take_debt(self) -> float:
        """Drain the pool and return the debt the retiring kernel pays."""
        debt = self.factor * self.overlap_busy
        self.overlap_busy = 0.0
        return debt

    def clear(self) -> None:
        self.kernel_inflight = False
        self.overlap_busy = 0.0


@dataclasses.dataclass
class Flight:
    """One offloaded kernel the engine is tracking."""

    handle: object  # OffloadHandle
    dt: DetailedTask
    #: Fault-free duration estimate (launch + kernel), for straggler and
    #: timeout thresholds.
    expected: float
    #: Watchdog deadline (inf when no policy / no hang risk).
    deadline: float
    t_launch: float
    #: Requested kernel duration (re-used verbatim on a respawn).
    duration: float


class OffloadEngine:
    """Per-timestep offload state for one rank's CPE cluster."""

    def __init__(self, sched, st, comm):
        self.sched = sched
        self.st = st
        self.comm = comm
        #: Offload slot per CPE group -> in-flight kernel.
        self.inflight: dict[int, Flight] = {}
        self.flag = CompletionFlag(sched.sim)
        if sched.validator is not None:
            sched.validator.watch_flag(sched.rank, self.flag)
        #: Tasks whose useful flops were already counted (retries and
        #: fallbacks must not double-count).
        self.flops_counted: set[int] = set()
        #: Failed offload attempts per task this timestep (timeouts and
        #: DMA errors alike), for :meth:`should_retry`.
        self.failures: dict[int, int] = {}
        self.interference = sched.interference_model

    def count_flops(self, dt: DetailedTask) -> None:
        # useful work is counted once per task, however many times a
        # fault forces it to be re-executed
        if dt.dt_id not in self.flops_counted:
            self.flops_counted.add(dt.dt_id)
            self.sched.stats.kernel_flops += self.sched.costs.kernel_flops(dt.task, dt.patch)

    def fail(self, dt: DetailedTask, cause: str) -> None:
        """Move ``dt`` to FAILED and count the attempt against its retries."""
        self.sched.lifecycle.transition(dt, TaskState.FAILED, cause=cause)
        if cause == "timeout":
            self.sched.stats.kernel_timeouts += 1
        self.failures[dt.dt_id] = self.failures.get(dt.dt_id, 0) + 1

    def should_retry(self, dt: DetailedTask) -> bool:
        """Whether the policy grants this task another offload attempt."""
        policy = self.sched.policy
        return policy is not None and self.failures.get(dt.dt_id, 0) <= policy.max_offload_retries

    # ------------------------------------------------------------ launch
    def launch(self, nxt: DetailedTask, group: int) -> None:
        """Clear the flag and offload ``nxt`` onto CPE ``group`` (3b iv)."""
        sched = self.sched
        sim = sched.sim
        duration = sched.costs.cpe_kernel_time(nxt.task, nxt.patch)
        self.flag.clear()
        t_launch = sim.now
        expected = sched.athread.launch_latency + duration
        handle = sched.athread.spawn(
            duration=duration,
            on_complete=sched.kernel_action(self.st, nxt),
            name=nxt.name,
            flag=self.flag,
            group=group,
        )
        deadline = (
            t_launch + sched.policy.kernel_timeout(expected)
            if sched._watchdog
            else float("inf")
        )
        self.inflight[group] = Flight(handle, nxt, expected, deadline, t_launch, duration)
        self.interference.kernel_inflight = True
        volume = sched.costs.kernel_dma_volume(nxt.task, nxt.patch)
        reg = sched.telemetry
        if reg is not None:
            reg.observe("kernel.seconds", duration)
            reg.observe(f"kernel.seconds.{nxt.task.name}", duration)
            reg.inc("dma.get.bytes", volume.get_bytes)
            reg.inc("dma.put.bytes", volume.put_bytes)
            reg.inc("dma.descriptors", volume.descriptors)
        sched.lifecycle.transition(nxt, TaskState.RUNNING, backend="cpe")
        sched.stats.kernels_offloaded += 1
        sched.stats.dma_bytes += volume.total_bytes
        if sched._tracing:
            sched.trace.record(sched.rank, "cpe", nxt.name, t_launch, t_launch + handle.duration)
        self.count_flops(nxt)

    # ------------------------------------------------------------ retire
    def any_done(self) -> bool:
        """Whether a completion flag is set (plain fast-path check)."""
        for fl in self.inflight.values():
            if fl.handle.event.triggered:
                return True
        return False

    def retire_completed(self) -> _t.Generator:
        """(3b) completion flag set: retire finished offloaded tasks."""
        sched = self.sched
        sim = sched.sim
        progressed = False
        done_groups = [g for g, fl in self.inflight.items() if fl.handle.done]
        for g in done_groups:
            fl = self.inflight.pop(g)
            done_dt = fl.dt
            if not self.inflight:
                self.interference.kernel_inflight = False
            if fl.handle.error is not None:
                # The kernel died mid-flight (simulated DMA fault): its
                # data effects were never published, so re-execution is
                # safe.  Fault-oblivious runs propagate the error.
                self.interference.overlap_busy = 0.0
                if sched.policy is None:
                    raise fl.handle.error
                self.fail(done_dt, "error")
                yield from self.requeue_or_fallback(done_dt)
                progressed = True
                continue
            sched.lifecycle.transition(done_dt, TaskState.RETIRING)
            debt = self.interference.take_debt()
            if debt > 0:
                # memory interference from overlapped MPE traffic
                # stretched the kernel (see InterferenceModel)
                t0 = sim.now
                yield debt
                if sched._tracing:
                    sched.trace.record(
                        sched.rank, "cpe", f"interference:{done_dt.name}", t0, sim.now
                    )
            if (
                sched.policy is not None
                and fl.handle.duration > sched.policy.straggler_factor * fl.expected
            ):
                sched.recovery_spans += 1
                sched.stats.stragglers_detected += 1
                if sched._tracing:
                    sched.trace.record(
                        sched.rank, "cpe", f"straggler:{done_dt.name}", fl.t_launch, sim.now
                    )
            sched.finish_task(self.st, self.comm, done_dt)
            progressed = True
        return progressed

    def watchdog(self) -> _t.Generator:
        """Abort offload slots whose completion flag never came."""
        sched = self.sched
        sim = sched.sim
        progressed = False
        overdue = [
            g
            for g, fl in self.inflight.items()
            if not fl.handle.done and sim.now >= fl.deadline
        ]
        for g in overdue:
            fl = self.inflight.pop(g)
            sched.athread.abort(g)
            if not self.inflight:
                self.interference.kernel_inflight = False
            self.interference.overlap_busy = 0.0
            sched.recovery_spans += 1
            self.fail(fl.dt, "timeout")
            if sched._tracing:
                sched.trace.record(
                    sched.rank, "mpe", f"recover-timeout:{fl.dt.name}", fl.t_launch, sim.now
                )
            yield from self.requeue_or_fallback(fl.dt)
            progressed = True
        return progressed

    # ------------------------------------------------------------ recovery
    def requeue_or_fallback(self, dt: DetailedTask) -> _t.Generator:
        """Retry a failed offload (policy permitting) or run on the MPE."""
        sched = self.sched
        if self.should_retry(dt):
            sched.lifecycle.transition(dt, TaskState.READY, retry=True)
            sched.stats.kernel_retries += 1
            self.st.tracker.requeue_front(dt)  # retry ahead of fresh work
        else:
            yield from self.mpe_fallback(dt)

    def mpe_fallback(self, dt: DetailedTask) -> _t.Generator:
        # last-resort execution on the management core: slow, but
        # immune to CPE/DMA faults
        sched = self.sched
        sched.lifecycle.transition(dt, TaskState.RUNNING, backend="mpe_fallback")
        sched.stats.mpe_fallbacks += 1
        sched.stats.kernels_on_mpe += 1
        action = sched.kernel_action(self.st, dt)
        if action is not None:
            action()
        yield sched._mpe("recover-fallback", sched.costs.mpe_kernel_time(dt.task, dt.patch), dt)
        sched.recovery_spans += 1  # where the traced span is recorded
        self.count_flops(dt)
        sched.finish_task(self.st, self.comm, dt)

    # ------------------------------------------------------------ sync spin
    def spin_to_completion(self, group: int) -> _t.Generator:
        """Spin on the completion flag: no overlap (Sec. V-C sync mode)."""
        sched = self.sched
        sim = sched.sim
        t0 = sim.now
        # the flight stays in its slot while the MPE spins, so a
        # deadlock report still names the kernel
        fl = self.inflight[group]
        nxt = fl.dt
        while True:
            if sched._watchdog:
                yield sim.any_of(
                    [
                        fl.handle.event,
                        sim.timeout(max(0.0, fl.deadline - sim.now)),
                    ]
                )
            else:
                yield fl.handle.event
            clean = fl.handle.done and fl.handle.error is None
            if clean:
                break
            if not fl.handle.done:
                # flag never came: watchdog fired
                sched.athread.abort(group)
                self.fail(nxt, "timeout")
            elif sched.policy is None:
                raise fl.handle.error
            else:
                self.fail(nxt, "error")
            if not self.should_retry(nxt):
                break  # retries exhausted: execute on the MPE instead
            h2 = sched.athread.spawn(
                duration=fl.duration,
                on_complete=sched.kernel_action(self.st, nxt),
                name=nxt.name,
                flag=self.flag,
                group=group,
            )
            sched.lifecycle.transition(nxt, TaskState.RUNNING, backend="cpe", retry=True)
            sched.stats.kernel_retries += 1
            self.inflight[group] = fl = Flight(
                h2,
                nxt,
                fl.expected,
                (
                    sim.now + sched.policy.kernel_timeout(fl.expected)
                    if sched._watchdog
                    else float("inf")
                ),
                sim.now,
                fl.duration,
            )
        del self.inflight[group]
        self.interference.clear()
        sched.stats.spin_wait += sim.now - t0
        if sched._tracing:
            sched.trace.record(sched.rank, "spin", nxt.name, t0, sim.now)
        if clean:
            sched.finish_task(self.st, self.comm, nxt)
        else:
            yield from self.mpe_fallback(nxt)

    # ------------------------------------------------------------ prefetch
    def prefetch_candidate(self) -> DetailedTask | None:
        """Next ready kernel whose MPE part can be pre-run (plain check)."""
        st = self.st
        if not st.tracker.counts[KERNEL_SLOT]:
            return None
        prepared = st.prepared
        for d in st.tracker.ready:
            if d.task.kind is TaskKind.CPE_KERNEL and d.dt_id not in prepared:
                return d
        return None

    # ------------------------------------------------------------ waiting
    def awaiting(self) -> list[str]:
        """The kernels in flight, per CPE group, for a deadlock report."""
        return [f"kernel {fl.dt.name} on CPE group {g}" for g, fl in self.inflight.items()]

    def wait_events(self) -> list:
        """Completion events of every in-flight kernel."""
        return [fl.handle.event for fl in self.inflight.values()]

    def deadline_event(self):
        """Timeout event at the nearest watchdog deadline, if armed."""
        if not (self.sched._watchdog and self.inflight):
            return None
        next_deadline = min(fl.deadline for fl in self.inflight.values())
        if next_deadline < float("inf"):
            sim = self.sched.sim
            return sim.timeout(max(0.0, next_deadline - sim.now))
        return None
