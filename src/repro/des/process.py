"""Generator-based cooperative processes.

A process is a Python generator that ``yield``\\ s either an
:class:`~repro.des.event.Event` or a non-negative ``float``:

* an event suspends the process until the event fires; the event's value
  is sent back into the generator (or its exception raised);
* a float ``d`` sleeps ``d`` simulated seconds, exactly as
  ``yield sim.timeout(d)`` would, without building a
  :class:`~repro.des.event.Timeout`.  The process pushes the same
  ``(now + d, seq, item)`` heap entry the timeout would have pushed when
  it was built right before the ``yield``, so sequence numbers, same-time
  tie order and the event count are unchanged.  A negative float raises
  ``ValueError`` inside the generator, at the ``yield``.

Processes are themselves events: they fire when the generator returns,
with the generator's return value, so processes can wait on each other
(``yield sim.process(child())``) — this is how the MPE scheduler waits for
a synchronous CPE offload while the async one does not.
"""

from __future__ import annotations

import functools
import heapq
import typing as _t

from repro.des.event import Event

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.des.simulator import Simulator


class _Slept:
    """The trigger a process resumes with after a sleep (or at boot)."""

    _ok = True
    _value = None


class _Wake:
    """A process's reusable heap item for its sleeps and its boot.

    A process sleeps at most once at a time, so one record serves every
    sleep.  ``Simulator.step`` calls ``_process``, which here is a
    ``functools.partial`` resuming the process directly.
    """

    __slots__ = ("_process",)

    def __init__(self, resume: _t.Callable[[], None]):
        self._process = resume


class Process(Event):
    """A running generator on the virtual timeline.

    The generator yields an :class:`~repro.des.event.Event` to wait for
    it, or a non-negative ``float`` to sleep that many simulated seconds
    (see the module docstring).  Do not instantiate directly — use
    :meth:`Simulator.process`.
    """

    __slots__ = ("_generator", "_wake")

    def __init__(self, sim: "Simulator", generator: _t.Generator, name: str | None = None):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"Simulator.process() needs a generator, got {generator!r}")
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self._generator = generator
        self._wake = _Wake(functools.partial(self._resume, _Slept))
        # Bootstrap: resume the generator at the current time.
        sim._schedule(self._wake, 0.0)

    # -- engine -----------------------------------------------------------
    def _resume(self, trigger) -> None:
        gen = self._generator
        try:
            if trigger._ok:
                target = gen.send(trigger._value)
            else:
                trigger._defused = True
                target = gen.throw(_t.cast(BaseException, trigger._value))
            while target.__class__ is float and target < 0.0:
                target = gen.throw(ValueError(f"negative delay {target!r}"))
        except StopIteration as stop:
            self._finish(True, stop.value)
            return
        except BaseException as exc:
            self._finish(False, exc)
            return
        sim = self.sim
        if target.__class__ is float:
            # a sleep: the heap entry Simulator.timeout would have pushed
            heapq.heappush(sim._queue, (sim.now + target, sim._seq, self._wake))
            sim._seq += 1
            return
        if not isinstance(target, Event):
            raise TypeError(
                f"process {self.name!r} yielded {target!r}; processes must yield "
                "Event objects or non-negative floats"
            )
        if target.sim is not sim:
            raise ValueError(f"process {self.name!r} yielded an event of another simulator")
        target._add_callback(self._resume)

    def _finish(self, ok: bool, value: object) -> None:
        # the wake record holds a bound method of this process: drop it,
        # so a finished process is freed without waiting for the cycle GC
        self._wake = None
        self._ok = ok
        self._value = value
        self.sim._schedule(self, 0.0)
