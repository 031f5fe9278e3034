"""The event loop and virtual clock."""

from __future__ import annotations

import heapq
import typing as _t

from repro.des.event import Event, Timeout, all_of, any_of
from repro.des.process import Process


#: ``max_events=None``: no budget (compares greater than any count).
_UNLIMITED = float("inf")


class EmptySchedule(Exception):
    """Raised by :meth:`Simulator.step` when no events remain."""


class QueueDrained(RuntimeError):
    """Raised by :meth:`Simulator.run` when no events remain but its
    target event has not fired: every process waits on something that
    can no longer happen (a deadlock)."""


class Simulator:
    """Deterministic discrete-event simulator.

    Time is a ``float`` in seconds of *simulated* machine time.  Events
    scheduled for the same instant fire in scheduling (FIFO) order, which
    makes every run bit-reproducible — a property the scheduler
    distribution-invariance tests rely on.

    A process yields an :class:`Event` to wait for it, or a non-negative
    ``float`` to sleep that many seconds: ``yield 1.5`` schedules the same
    heap entry as ``yield sim.timeout(1.5)`` without building the event
    (see :mod:`repro.des.process`).

    Typical use::

        sim = Simulator()

        def worker(sim):
            yield sim.timeout(1.5)
            yield 0.5
            return "done"

        proc = sim.process(worker(sim))
        sim.run()
        assert sim.now == 2.0 and proc.value == "done"
    """

    def __init__(self):
        #: Current simulated time in seconds.  A plain attribute, read on
        #: every event; only :meth:`step` and :meth:`run` advance it.
        self.now = 0.0
        self._queue: list[tuple[float, int, object]] = []
        self._seq = 0
        #: Events processed by :meth:`run` over this simulator's life
        #: (updated when each ``run`` call returns or raises).
        self.events_run = 0

    # -- event factories -------------------------------------------------
    def event(self, name: str | None = None) -> Event:
        """A fresh untriggered event (trigger it with ``succeed``/``fail``)."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """An event firing ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: _t.Generator, name: str | None = None) -> Process:
        """Start a new process from ``generator``; returns its Process event."""
        return Process(self, generator, name=name)

    def all_of(self, events: _t.Sequence[Event]) -> Event:
        """Event firing when all of ``events`` fired."""
        return all_of(self, events)

    def any_of(self, events: _t.Sequence[Event]) -> Event:
        """Event firing when any of ``events`` fired."""
        return any_of(self, events)

    # -- scheduling --------------------------------------------------------
    def _schedule(self, item: object, delay: float) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        heapq.heappush(self._queue, (self.now + delay, self._seq, item))
        self._seq += 1

    def step(self) -> None:
        """Process exactly one scheduled event."""
        try:
            when, _, item = heapq.heappop(self._queue)
        except IndexError:
            raise EmptySchedule("no events scheduled") from None
        assert when >= self.now, "event queue went backwards"
        self.now = when
        item._process()  # type: ignore[attr-defined]

    def run(
        self, until: float | Event | None = None, max_events: int | None = None
    ) -> object:
        """Run until the queue drains, a time is reached, or an event fires.

        Parameters
        ----------
        until:
            ``None`` — run to queue exhaustion;
            a ``float`` — run until the clock would pass that time
            (the clock is then set to exactly that time);
            an :class:`Event` — run until that event has been processed,
            returning its value (or raising its exception); raises
            :class:`QueueDrained` if the queue empties first.
        max_events:
            Optional runaway guard: abort with ``RuntimeError`` once this
            many events were processed and more remain (catches processes
            stuck in zero-delay loops, which never drain the queue).

        Every event goes through :meth:`step`, the single per-event entry
        point; the count of events this call processed (one that raised
        included) is added to :attr:`events_run`.
        """
        limit = _UNLIMITED if max_events is None else max_events
        queue = self._queue  # heap mutated in place, never rebound
        step = self.step
        count = 0
        try:
            if until is None:
                while queue:
                    if count >= limit:
                        self._runaway(max_events)
                    count += 1
                    step()
                return None
            if isinstance(until, Event):
                target = until
                while not target._processed:
                    if not queue:
                        raise QueueDrained(
                            f"simulation ran out of events before {target!r} fired (deadlock?)"
                        )
                    if count >= limit:
                        self._runaway(max_events)
                    count += 1
                    step()
                if not target.ok:
                    raise _t.cast(BaseException, target.value)
                return target.value
            horizon = float(until)
            if horizon < self.now:
                raise ValueError(f"until={horizon} is in the past (now={self.now})")
            while queue and queue[0][0] <= horizon:
                if count >= limit:
                    self._runaway(max_events)
                count += 1
                step()
            self.now = horizon
            return None
        finally:
            self.events_run += count

    def _runaway(self, max_events: int | None) -> _t.NoReturn:
        raise RuntimeError(
            f"simulation exceeded max_events={max_events} at t={self.now} "
            "(zero-delay loop?)"
        )
