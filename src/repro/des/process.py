"""Generator-based cooperative processes.

A process is a Python generator that ``yield``\\ s :class:`~repro.des.event.Event`
instances.  Each yield suspends the process until the event fires; the
event's value is sent back into the generator (or its exception raised).

Processes are themselves events: they fire when the generator returns,
with the generator's return value, so processes can wait on each other
(``yield sim.process(child())``) — this is how the MPE scheduler waits for
a synchronous CPE offload while the async one does not.
"""

from __future__ import annotations

import typing as _t

from repro.des.event import Event, Interrupt

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.des.simulator import Simulator


class Process(Event):
    """A running generator on the virtual timeline.

    Do not instantiate directly — use :meth:`Simulator.process`.
    """

    __slots__ = ("_generator", "_waiting_on")

    def __init__(self, sim: "Simulator", generator: _t.Generator, name: str | None = None):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"Simulator.process() needs a generator, got {generator!r}")
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self._generator = generator
        self._waiting_on: Event | None = None
        # Bootstrap: resume the generator at the current time.
        boot = Event(sim, name=f"boot:{self.name}")
        boot._ok = True
        boot._value = None
        boot._add_callback(self._resume)
        sim._schedule(boot, 0.0)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: object = None) -> None:
        """Raise :class:`Interrupt` inside the process at the current time.

        Interrupting a finished process is an error; interrupting a process
        that is waiting detaches it from the event it was waiting on (the
        event may still fire later, it will simply no longer resume us).
        """
        if self.triggered:
            raise RuntimeError(f"{self!r} has already terminated")
        target = self._waiting_on
        if target is not None:
            # Detach: drop our resume callback (bound methods are recreated
            # on each attribute access, so compare by receiver, not identity).
            if target._callbacks is not None:
                target._callbacks = [
                    cb for cb in target._callbacks if getattr(cb, "__self__", None) is not self
                ]
        poke = Event(self.sim, name=f"interrupt:{self.name}")
        poke._ok = False
        poke._value = Interrupt(cause)
        poke._defused = True
        poke._add_callback(self._resume)
        self.sim._schedule(poke, 0.0)

    # -- engine -----------------------------------------------------------
    def _resume(self, trigger: Event) -> None:
        if self.triggered:
            # A stale wake-up (e.g. an event we were detached from while
            # being interrupted) must never resume a finished generator.
            return
        self._waiting_on = None
        sim = self.sim
        try:
            if trigger._ok:
                target = self._generator.send(trigger._value)
            else:
                trigger._defused = True
                target = self._generator.throw(_t.cast(BaseException, trigger._value))
        except StopIteration as stop:
            self._ok = True
            self._value = stop.value
            sim._schedule(self, 0.0)
            return
        except BaseException as exc:
            self._ok = False
            self._value = exc
            sim._schedule(self, 0.0)
            return
        if not isinstance(target, Event):
            raise TypeError(
                f"process {self.name!r} yielded {target!r}; processes must yield Event objects"
            )
        if target.sim is not sim:
            raise ValueError(f"process {self.name!r} yielded an event of another simulator")
        self._waiting_on = target
        target._add_callback(self._resume)
