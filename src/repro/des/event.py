"""Events: the synchronisation primitive of the DES kernel.

An :class:`Event` is a one-shot occurrence on the virtual timeline.
Processes ``yield`` events to suspend until the event *fires*.  Events can
succeed with a value or fail with an exception; a failed event re-raises
inside every waiting process, which lets failure injection propagate
through schedulers exactly like a hardware fault would.
"""

from __future__ import annotations

import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.des.simulator import Simulator


#: Sentinel for "event has not yet been given a value".
_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    States:

    * *pending* — created but not yet triggered.
    * *triggered* — scheduled to fire; its callbacks will run when the
      simulator reaches its scheduled time.
    * *processed* — callbacks have run; waiting processes were resumed.

    Parameters
    ----------
    sim:
        The owning simulator.  Events are bound to exactly one simulator
        and may only be waited on by processes of that simulator.
    name:
        Optional label used in ``repr`` and traces.
    """

    __slots__ = ("sim", "name", "_value", "_ok", "_callbacks", "_processed", "_defused")

    def __init__(self, sim: "Simulator", name: str | None = None):
        self.sim = sim
        self.name = name
        self._value: object = _PENDING
        self._ok: bool | None = None
        self._callbacks: list | None = []
        self._processed = False
        self._defused = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run and waiters were resumed."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise RuntimeError(f"{self!r} has not been triggered yet")
        return self._ok

    @property
    def value(self) -> object:
        """The event's value (or exception).  Only valid once triggered."""
        if self._value is _PENDING:
            raise RuntimeError(f"{self!r} has not been triggered yet")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: object = None, delay: float = 0.0) -> "Event":
        """Schedule this event to fire successfully after ``delay``."""
        if self.triggered:
            raise RuntimeError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim._schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Schedule this event to fire as a failure after ``delay``.

        Every process waiting on the event will see ``exception`` raised
        at its ``yield``.  If nothing ever waits on a failed event the
        simulator raises the exception at ``run()`` time so failures are
        never silently dropped (mirroring SimPy's defused semantics).
        """
        if not isinstance(exception, BaseException):
            raise TypeError("fail() needs an exception instance")
        if self.triggered:
            raise RuntimeError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.sim._schedule(self, delay)
        return self

    # -- callback plumbing --------------------------------------------------
    def _add_callback(self, callback) -> None:
        if self._processed:
            # Late subscription to an already-processed event: run on the
            # next simulator tick at the current time so semantics do not
            # depend on subscription order.
            self.sim._schedule(_CallbackShim(self, callback), 0.0)
        else:
            assert self._callbacks is not None
            self._callbacks.append(callback)

    def _process(self) -> None:
        """Run callbacks.  Called by the simulator at fire time."""
        callbacks, self._callbacks = self._callbacks, None
        self._processed = True
        if not self._ok and not callbacks and not self._defused:
            raise self._value  # type: ignore[misc]  # unhandled failure
        for cb in callbacks or ():
            cb(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self._processed else ("triggered" if self.triggered else "pending")
        label = self.name or self.__class__.__name__
        return f"<{label} {state} at {id(self):#x}>"


class _CallbackShim:
    """Internal: delivers a late-subscribed callback for a processed event."""

    __slots__ = ("event", "callback")

    def __init__(self, event: Event, callback):
        self.event = event
        self.callback = callback

    def _process(self) -> None:
        self.callback(self.event)


class Timeout(Event):
    """An event that fires after a fixed virtual delay.

    Created via :meth:`Simulator.timeout`.  ``delay`` must be >= 0; zero
    delays are legal and fire in FIFO order with other same-time events.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: object = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        # The label is derived lazily in __repr__: hundreds of thousands
        # of timeouts per run never need it.
        super().__init__(sim)
        self.delay = delay
        self._ok = True
        self._value = value
        sim._schedule(self, delay)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self._processed else "triggered"
        return f"<{self.name or f'Timeout({self.delay:g})'} {state} at {id(self):#x}>"


class Condition(Event):
    """Fires when a predicate over child events is satisfied.

    Use the :func:`all_of` / :func:`any_of` helpers.  The condition value
    is the dict ``{event: value}`` of all child events that had fired by
    the time the condition triggered.  A failing child fails the whole
    condition immediately.
    """

    __slots__ = ("_events", "_count", "_needed")

    def __init__(self, sim: "Simulator", events: _t.Sequence[Event], needed: int):
        super().__init__(sim, name=f"Condition({needed}/{len(events)})")
        events = list(events)
        for ev in events:
            if ev.sim is not sim:
                raise ValueError("condition mixes events from different simulators")
        self._events = events
        self._count = 0
        self._needed = min(needed, len(events))
        if self._needed == 0:
            self.succeed(self._collect())
            return
        for ev in events:
            if ev._processed:
                self._on_child(ev)
            else:
                ev._add_callback(self._on_child)

    def _collect(self) -> dict:
        return {ev: ev._value for ev in self._events if ev._processed and ev._ok}

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev._ok:
            ev._defused = True
            self.fail(_t.cast(BaseException, ev._value))
            return
        self._count += 1
        if self._count >= self._needed:
            self.succeed(self._collect())


def all_of(sim: "Simulator", events: _t.Sequence[Event]) -> Condition:
    """Event that fires when *all* of ``events`` have fired."""
    return Condition(sim, events, needed=len(list(events)))


def any_of(sim: "Simulator", events: _t.Sequence[Event]) -> Condition:
    """Event that fires when *any one* of ``events`` has fired."""
    return Condition(sim, events, needed=1)
