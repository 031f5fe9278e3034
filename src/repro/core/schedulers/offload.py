"""CPE offload engine: flights, completion flags, watchdog, fallback.

Tracks every kernel offloaded to a CPE group as a :class:`Flight`
(step 3b of the paper's scheduler), retires completed flights, arms the
completion-timeout watchdog when kernels can hang, and runs the
re-offload / MPE-fallback recovery ladder under the
:class:`~repro.core.schedulers.lifecycle.RetryGovernor`'s verdicts.

:class:`InterferenceModel` is the memory-interference debt model: MPE
and CPEs share one memory controller, so MPE bulk traffic overlapped
with an in-flight kernel is charged back as extra kernel time on
retirement (factor ``interference``); see ``docs/ARCHITECTURE.md`` and
the paper's Sec. VII-C observation on the vectorized kernel.
"""

from __future__ import annotations

import dataclasses
import typing as _t

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
        self.num_groups = sched.backend.num_groups(sched.athread)
        self.interference = sched.interference_model

    @staticmethod
    def is_offloadable(d: DetailedTask) -> bool:
        return d.task.kind is TaskKind.CPE_KERNEL

    def count_flops(self, dt: DetailedTask) -> None:
        # useful work is counted once per task, however many times a
        # fault forces it to be re-executed
        if dt.dt_id not in self.flops_counted:
            self.flops_counted.add(dt.dt_id)
            self.sched.lifecycle.emit(
                "flops", dt, n=self.sched.costs.kernel_flops(dt.task, dt.patch)
            )

    # ------------------------------------------------------------ launch
    def launch(self, nxt: DetailedTask, group: int) -> Flight:
        """Clear the flag and offload ``nxt`` onto CPE ``group`` (3b iv)."""
        sched = self.sched
        sim = sched.sim
        duration = sched.costs.cpe_kernel_time(nxt.task, nxt.patch)
        self.flag.clear()
        t_launch = sim.now
        expected = sched.athread.launch_latency + duration
        handle = sched.athread.spawn(
            duration=duration,
            payload=nxt,
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
        fl = Flight(handle, nxt, expected, deadline, t_launch, duration)
        self.inflight[group] = fl
        self.interference.kernel_inflight = True
        if sched.telemetry is not None:
            sched.telemetry.on_kernel_launch(
                sched.rank,
                nxt.name,
                duration,
                sched.costs.kernel_dma_volume(nxt.task, nxt.patch),
            )
        sched.lifecycle.transition(
            nxt,
            TaskState.RUNNING,
            backend="cpe",
            span=("cpe", nxt.name, t_launch, t_launch + handle.duration),
        )
        self.count_flops(nxt)
        return fl

    # ------------------------------------------------------------ retire
    def any_done(self) -> bool:
        """Whether a completion flag is set (plain fast-path check)."""
        for fl in self.inflight.values():
            if fl.handle.done:
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
                sched.lifecycle.transition(done_dt, TaskState.FAILED, cause="error")
                yield from self.requeue_or_fallback(done_dt)
                progressed = True
                continue
            sched.lifecycle.transition(done_dt, TaskState.RETIRING)
            debt = self.interference.take_debt()
            if debt > 0:
                # memory interference from overlapped MPE traffic
                # stretched the kernel (see InterferenceModel)
                t0 = sim.now
                yield sim.timeout(debt)
                sched.lifecycle.emit(
                    "interference",
                    done_dt,
                    span=("cpe", f"interference:{done_dt.name}", t0, sim.now),
                )
            if (
                sched.policy is not None
                and fl.handle.duration > sched.policy.straggler_factor * fl.expected
            ):
                sched.lifecycle.emit(
                    "straggler",
                    done_dt,
                    span=("cpe", f"straggler:{done_dt.name}", fl.t_launch, sim.now),
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
            sched.lifecycle.transition(
                fl.dt,
                TaskState.FAILED,
                cause="timeout",
                span=("mpe", f"recover-timeout:{fl.dt.name}", fl.t_launch, sim.now),
            )
            yield from self.requeue_or_fallback(fl.dt)
            progressed = True
        return progressed

    # ------------------------------------------------------------ recovery
    def requeue_or_fallback(self, dt: DetailedTask) -> _t.Generator:
        """Retry a failed offload (policy permitting) or run on the MPE."""
        sched = self.sched
        if sched.retry_governor.should_retry(dt):
            sched.lifecycle.transition(dt, TaskState.READY, retry=True)
            self.st.tracker.ready.insert(0, dt)  # retry ahead of fresh work
        else:
            yield from self.mpe_fallback(dt)

    def mpe_fallback(self, dt: DetailedTask) -> _t.Generator:
        # last-resort execution on the management core: slow, but
        # immune to CPE/DMA faults
        sched = self.sched
        sched.lifecycle.transition(dt, TaskState.RUNNING, backend="mpe_fallback")
        action = sched.kernel_action(self.st, dt)
        if action is not None:
            action()
        yield from sched._mpe(
            f"recover-fallback:{dt.name}",
            sched.costs.mpe_kernel_time(dt.task, dt.patch),
        )
        self.count_flops(dt)
        sched.finish_task(self.st, self.comm, dt)

    # ------------------------------------------------------------ sync spin
    def spin_to_completion(self, group: int) -> _t.Generator:
        """Spin on the completion flag: no overlap (Sec. V-C sync mode)."""
        sched = self.sched
        sim = sched.sim
        t0 = sim.now
        fl = self.inflight.pop(group)
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
            if fl.handle.done and fl.handle.error is None:
                break  # completed cleanly
            if not fl.handle.done:
                # flag never came: watchdog fired
                sched.athread.abort(group)
                sched.lifecycle.transition(nxt, TaskState.FAILED, cause="timeout")
            elif sched.policy is None:
                raise fl.handle.error
            else:
                sched.lifecycle.transition(nxt, TaskState.FAILED, cause="error")
            if sched.retry_governor.should_retry(nxt):
                h2 = sched.athread.spawn(
                    duration=fl.duration,
                    payload=nxt,
                    on_complete=sched.kernel_action(self.st, nxt),
                    name=nxt.name,
                    flag=self.flag,
                    group=group,
                )
                sched.lifecycle.transition(nxt, TaskState.RUNNING, backend="cpe", retry=True)
                fl = Flight(
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
                continue
            # retries exhausted: execute on the MPE instead
            self.interference.clear()
            sched.lifecycle.emit(
                "spin", nxt, seconds=sim.now - t0, span=("spin", nxt.name, t0, sim.now)
            )
            yield from self.mpe_fallback(nxt)
            return
        self.interference.clear()
        sched.lifecycle.emit(
            "spin", nxt, seconds=sim.now - t0, span=("spin", nxt.name, t0, sim.now)
        )
        sched.finish_task(self.st, self.comm, nxt)

    # ------------------------------------------------------------ prefetch
    def prefetch_candidate(self) -> DetailedTask | None:
        """Next ready kernel whose MPE part can be pre-run (plain check)."""
        st = self.st
        return next(
            (
                d
                for d in st.tracker.ready
                if self.is_offloadable(d) and d.dt_id not in st.prepared
            ),
            None,
        )

    # ------------------------------------------------------------ waiting
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
