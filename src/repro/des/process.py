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

from repro.des.event import Event

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.des.simulator import Simulator


class Process(Event):
    """A running generator on the virtual timeline.

    Do not instantiate directly — use :meth:`Simulator.process`.
    """

    __slots__ = ("_generator",)

    def __init__(self, sim: "Simulator", generator: _t.Generator, name: str | None = None):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"Simulator.process() needs a generator, got {generator!r}")
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self._generator = generator
        # Bootstrap: resume the generator at the current time.
        boot = Event(sim, name=f"boot:{self.name}")
        boot._ok = True
        boot._value = None
        boot._add_callback(self._resume)
        sim._schedule(boot, 0.0)

    # -- engine -----------------------------------------------------------
    def _resume(self, trigger: Event) -> None:
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
        target._add_callback(self._resume)
