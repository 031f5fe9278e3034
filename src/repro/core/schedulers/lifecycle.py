"""Task-lifecycle state machine and event layer.

Every scheduler drives its tasks through one explicit state machine::

    pending -> ready -> dispatched -> running -> retiring -> done
                  ^                      |
                  |                      v
                  +------ retry ------ failed ---- fallback --> running

and announces each move, plus the named events the schedule validator
checks: ``msg-recv``, ``local-copy`` and ``scrubbed``.

Optional observers — the :class:`~repro.verify.ScheduleValidator` and
test recorders — *subscribe* and receive each announcement as a
:class:`LifecycleEvent`; with nobody subscribed no event is built.
Instruments are not on the bus: each
:class:`~repro.core.schedulers.base.SchedulerStats` counter is bumped
by the code that produces it, spans are recorded on the
:class:`~repro.core.trace.Tracer` where they happen, and the offload
engine counts the failures its retry verdicts need.  See
``docs/ARCHITECTURE.md`` for the layer diagram.
"""

from __future__ import annotations

import enum
import typing as _t


class TaskState(enum.Enum):
    """Where one detailed task is in its per-timestep life."""

    PENDING = "pending"
    READY = "ready"
    DISPATCHED = "dispatched"
    RUNNING = "running"
    RETIRING = "retiring"
    DONE = "done"
    FAILED = "failed"


#: Legal moves.  FAILED -> READY is a re-offload retry; FAILED -> RUNNING
#: is the sync-mode in-place respawn or the MPE fallback execution.
_ALLOWED: dict[TaskState, tuple[TaskState, ...]] = {
    TaskState.PENDING: (TaskState.READY,),
    TaskState.READY: (TaskState.DISPATCHED,),
    TaskState.DISPATCHED: (TaskState.RUNNING,),
    TaskState.RUNNING: (TaskState.RETIRING, TaskState.FAILED),
    TaskState.RETIRING: (TaskState.DONE,),
    TaskState.FAILED: (TaskState.READY, TaskState.RUNNING),
    TaskState.DONE: (),
}
# Each state also carries its row as ``state.successors``: the per-event
# legality check is then a tuple membership test, which compares
# identities, instead of a dict lookup through the Python-level
# ``Enum.__hash__`` (CPython 3.11).
for _state, _successors in _ALLOWED.items():
    _state.successors = _successors
del _state, _successors

# Aliases for the per-event paths: reading a member through the class
# goes through ``EnumType.__getattr__``'s slow attribute hook.
_RETIRING = TaskState.RETIRING
_DONE = TaskState.DONE


class IllegalTransition(RuntimeError):
    """A scheduler tried a move the state machine forbids (runtime bug)."""


class LifecycleEvent:
    """One announcement: a state transition or a named runtime event.

    ``info`` carries what the validator reads: a transition's
    ``backend``, ``cause`` and ``retry``, a step's ``tasks`` and
    ``step``, a scrubbed variable's ``label`` and ``patch``.
    """

    __slots__ = ("kind", "dt", "state", "t", "info")

    def __init__(self, kind, dt, state, t, info):
        self.kind = kind
        self.dt = dt
        self.state = state
        self.t = t
        self.info = info

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        what = self.state.name if self.state is not None else self.kind
        who = self.dt.name if self.dt is not None else "-"
        return f"<LifecycleEvent {what} {who} t={self.t:.6g}>"


class TaskLifecycle:
    """Per-scheduler state machine; reset at every timestep boundary.

    ``clock`` is anything with a ``.now`` attribute (normally the DES
    simulator).  The subscriber loop is inlined into :meth:`begin_step`,
    :meth:`transition` and :meth:`emit`, and skipped when nobody
    subscribed — this sits inside the hottest scheduler path, and every
    event fires tens of thousands of times per run.
    """

    def __init__(self, clock):
        self._clock = clock
        self._subs: list[_t.Callable[[LifecycleEvent], None]] = []
        #: ``True`` once anyone subscribed.  Callers of :meth:`emit` on a
        #: hot path check it first, so an unobserved run builds not even
        #: the keyword dict of an announcement.
        self.observed = False
        self._state: dict[int, TaskState] = {}
        #: The timestep :meth:`begin_step` last announced (``None`` before).
        self.step: int | None = None

    def subscribe(self, fn: _t.Callable[[LifecycleEvent], None]) -> None:
        """Register an observer called synchronously on every event."""
        self._subs.append(fn)
        self.observed = True

    def begin_step(self, tasks, step: int = 0) -> None:
        """Register this timestep's tasks (all PENDING) and announce it.

        The event's ``info`` carries the task list and the step number so
        observers that mirror the state machine (the schedule validator)
        know the step's population without threading it separately.
        """
        tasks = list(tasks)
        self._state = {dt.dt_id: TaskState.PENDING for dt in tasks}
        self.step = step
        if self._subs:
            ev = LifecycleEvent(
                "step-begin", None, None, self._clock.now, {"tasks": tasks, "step": step}
            )
            for fn in self._subs:
                fn(ev)

    def state_counts(self) -> dict[str, int]:
        """How many of this step's tasks are in each state (non-zero only)."""
        states = list(self._state.values())
        return {s.value: states.count(s) for s in TaskState if s in states}

    def transition(self, dt, state: TaskState, **info) -> None:
        """Move ``dt`` to ``state``, validating legality, and announce."""
        cur = self._state.get(dt.dt_id)
        if cur is None:
            raise IllegalTransition(f"task {dt.dt_id} is not part of this timestep")
        if state not in cur.successors:
            raise IllegalTransition(f"{dt.name}: illegal transition {cur.name} -> {state.name}")
        self._state[dt.dt_id] = state
        if self._subs:
            ev = LifecycleEvent("transition", dt, state, self._clock.now, info)
            for fn in self._subs:
                fn(ev)

    def retire(self, dt) -> None:
        """Finish a task: RETIRING (unless already there) then DONE."""
        if self._state.get(dt.dt_id) is not _RETIRING:
            self.transition(dt, _RETIRING)
        self.transition(dt, _DONE)

    def emit(self, kind: str, dt=None, **info) -> None:
        """Announce a named (non-transition) runtime event."""
        if self._subs:
            ev = LifecycleEvent(kind, dt, None, self._clock.now, info)
            for fn in self._subs:
                fn(ev)
