"""The ``athread`` offload interface on the discrete-event simulator.

On Sunway, the MPE starts a group of lightweight threads (one per CPE)
running a kernel function, and monitors progress through an atomically
incremented word in main memory (the ``faaw`` instruction) — the paper's
scheduler "sets up a completion flag in the main memory just before
offloading a kernel ... the kernel will update the flag when it finishes"
(Sec. V-B).  This module models exactly that contract:

* :class:`CompletionFlag` — the shared word; ``faaw`` increments it and
  wakes DES waiters, ``value`` is what the MPE polls.
* :class:`AthreadRuntime` — one per core-group; :meth:`spawn` launches a
  kernel on the CPE cluster (or on a sub-group, for the CPE-grouping
  extension), charging a launch latency and the cluster execution time,
  then bumps the flag.  Only one kernel may run per group at a time, as
  with real ``athread_spawn``/``athread_join``.
* :class:`OffloadHandle` — what the scheduler holds: a ``done`` property
  to poll (async mode) and a DES event to block on (sync mode).
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.des import Simulator
from repro.des.event import Event
from repro.sunway.config import CoreGroupConfig


class CompletionFlag:
    """An atomically-updated counter in main memory.

    Mirrors the 4/8-byte ``faaw`` target the paper's scheduler uses.  The
    MPE reads :attr:`value`; DES processes can also obtain an event that
    fires when the counter reaches a target, which lets the synchronous
    scheduler "spin" without burning simulator events.
    """

    def __init__(self, sim: Simulator, initial: int = 0):
        self.sim = sim
        self._value = int(initial)
        self._waiters: list[tuple[int, Event]] = []
        #: Completion-flag audit hook (``on_clear`` / ``on_faaw``); set by
        #: the verification subsystem, ``None`` in normal runs.  Observers
        #: charge no simulated time.
        self.observer = None

    @property
    def value(self) -> int:
        """Current counter value (what a plain MPE load would see)."""
        return self._value

    def clear(self) -> None:
        """Reset to zero (scheduler step 3(b)iv: 'clear the completion flag')."""
        if self.observer is not None:
            self.observer.on_clear(self, self._value)
        self._value = 0

    def faaw(self, increment: int = 1) -> int:
        """Fetch-and-add-word: atomically add and return the old value."""
        old = self._value
        self._value += int(increment)
        if self.observer is not None:
            self.observer.on_faaw(self, old, self._value)
        still_waiting = []
        for target, ev in self._waiters:
            if self._value >= target and not ev.triggered:
                ev.succeed(self._value)
            else:
                still_waiting.append((target, ev))
        self._waiters = still_waiting
        return old

    def reached(self, target: int) -> Event:
        """DES event firing when the counter reaches ``target``."""
        ev = self.sim.event(name=f"flag>={target}")
        if self._value >= target:
            ev.succeed(self._value)
        else:
            self._waiters.append((target, ev))
        return ev


@dataclasses.dataclass
class OffloadHandle:
    """A kernel in flight on (a group of) the CPE cluster."""

    name: str
    flag: CompletionFlag
    #: Fires when the kernel finishes (flag has been bumped) — or, under
    #: fault injection, when it dies with :attr:`error` set.
    event: Event
    #: Simulated seconds the cluster will spend (launch + execution,
    #: including any injected slowdown).
    duration: float
    #: Set when the kernel died instead of completing (e.g.
    #: :class:`~repro.sunway.dma.DMAError`); data effects were NOT applied.
    error: BaseException | None = None
    #: Set by :meth:`AthreadRuntime.abort`: the MPE gave up on this
    #: kernel; any still-pending completion is discarded.
    aborted: bool = False

    @property
    def done(self) -> bool:
        """Non-blocking completion check — the MPE's flag poll."""
        return self.event.triggered

class AthreadRuntime:
    """Offload engine of one core-group.

    Parameters
    ----------
    sim:
        The simulator this CG lives on.
    config:
        Architectural parameters (CPE count, used for grouping checks).
    launch_latency:
        Seconds from ``spawn`` until the CPEs begin executing (athread
        spawn + argument marshalling; "lightweight due to the
        shared-memory design").
    num_groups:
        1 for the paper's configuration (whole-cluster offload).  >1
        enables the future-work CPE-grouping extension: each group is an
        independent offload engine with ``num_cpes / num_groups`` CPEs.
    """

    def __init__(
        self,
        sim: Simulator,
        config: CoreGroupConfig | None = None,
        launch_latency: float = 15e-6,
        num_groups: int = 1,
    ):
        self.sim = sim
        self.config = config or CoreGroupConfig()
        if launch_latency < 0:
            raise ValueError(f"launch latency must be >= 0, got {launch_latency}")
        if num_groups < 1 or self.config.num_cpes % num_groups:
            raise ValueError(
                f"num_groups must divide {self.config.num_cpes} CPEs, got {num_groups}"
            )
        #: A float, so a kernel flight's duration is one too (the CPE
        #: process sleeps by yielding it).
        self.launch_latency = float(launch_latency)
        self.num_groups = num_groups
        self._busy: dict[int, OffloadHandle | None] = {g: None for g in range(num_groups)}
        self._spawn_count = 0
        #: Optional :class:`~repro.faults.injector.FaultInjector` (set by
        #: the controller).  When present, every spawn asks it for a
        #: kernel fault: slowdown, stuck completion flag, or DMA error.
        self.faults = None
        #: Rank this core-group belongs to (fault-stream attribution).
        self.rank = 0

    def busy(self, group: int = 0) -> bool:
        """Whether ``group`` currently has a kernel in flight."""
        handle = self._busy[group]
        return handle is not None and not handle.done

    def spawn(
        self,
        duration: float,
        on_complete: _t.Callable[[], None] | None = None,
        group: int = 0,
        name: str | None = None,
        flag: CompletionFlag | None = None,
    ) -> OffloadHandle:
        """Launch a kernel of ``duration`` cluster-seconds on ``group``.

        ``duration`` is the cluster execution time computed by the cost
        model (:meth:`CoreRates.cluster_kernel_time`); the handle's flag
        is bumped ``launch_latency + duration`` simulated seconds from
        now.  ``on_complete`` (if given) runs at completion time — the
        real-numerics mode applies the kernel's data effects there, so
        data becomes visible exactly when the hardware would publish it.

        Raises
        ------
        RuntimeError
            If the group already has a kernel in flight (real ``athread``
            requires a join before the next spawn).
        """
        if group not in self._busy:
            raise ValueError(f"no such CPE group {group} (have {self.num_groups})")
        if self.busy(group):
            raise RuntimeError(f"CPE group {group} is busy; join the running kernel first")
        if duration < 0:
            raise ValueError(f"kernel duration must be >= 0, got {duration}")

        self._spawn_count += 1
        flag = flag if flag is not None else CompletionFlag(self.sim)
        handle = OffloadHandle(
            name=name or f"kernel{self._spawn_count}",
            flag=flag,
            event=Event(self.sim),
            duration=self.launch_latency + duration,
        )
        fault = None
        # hot-path gate: skip the injector query when no CPE fault can fire
        if self.faults is not None and self.faults.config.cpe_active:
            fault = self.faults.kernel_fault(
                self.rank, handle.name, handle.duration, self.sim.now
            )
            if fault is not None and fault.kind == "slowdown":
                handle.duration *= fault.factor
        self._busy[group] = handle

        def run(sim: Simulator):
            if fault is not None and fault.kind == "stuck":
                # Hung CPE: the completion flag is never bumped.  The MPE
                # only recovers through its completion-timeout watchdog
                # (ResiliencePolicy), which aborts this slot.
                return
            if fault is not None and fault.kind == "dma_error":
                from repro.sunway.dma import DMAError

                yield fault.error_frac * handle.duration
                if handle.aborted:
                    return
                handle.error = DMAError(handle.name, fault.error_frac)
                handle.event.succeed(handle)
                return
            yield handle.duration
            if handle.aborted:
                # The MPE gave up (watchdog) before we finished; results
                # are discarded exactly like a killed thread group's.
                return
            if on_complete is not None:
                on_complete()
            flag.faaw(1)
            handle.event.succeed(handle)

        self.sim.process(run(self.sim))
        return handle

    def abort(self, group: int = 0) -> OffloadHandle | None:
        """Give up on ``group``'s in-flight kernel and free the slot.

        Models the MPE killing a hung thread group after a completion
        timeout: the kernel's pending effects (data publication, flag
        bump) are discarded, and the group accepts a new ``spawn``
        immediately.  Returns the abandoned handle (or None if the group
        was idle).
        """
        if group not in self._busy:
            raise ValueError(f"no such CPE group {group} (have {self.num_groups})")
        handle = self._busy[group]
        if handle is None or handle.done:
            self._busy[group] = None
            return None
        handle.aborted = True
        self._busy[group] = None
        return handle
