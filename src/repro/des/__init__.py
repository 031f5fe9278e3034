"""Discrete-event simulation core.

The entire Sunway reproduction runs on virtual time: MPE control loops,
CPE kernel executions, DMA transfers and MPI messages are all processes
and events advancing a single simulated clock.  This package is a small,
self-contained, SimPy-flavoured discrete-event kernel:

* :class:`~repro.des.simulator.Simulator` — the event loop and clock.
* :class:`~repro.des.process.Process` — generator-based cooperative
  processes, created with :meth:`Simulator.process`.
* :class:`~repro.des.event.Event`, :class:`~repro.des.event.Timeout`,
  :func:`~repro.des.event.all_of`, :func:`~repro.des.event.any_of` —
  the things a process can ``yield``, besides a non-negative ``float``
  (a sleep of that many seconds, without building an event).
* :class:`~repro.des.resources.Store` — an unbounded FIFO with blocking
  ``get``.

The scheduler reproduction needs deterministic execution: given the same
inputs the event order is fully reproducible (ties in time are broken by a
monotone sequence number, never by object identity).
"""

from repro.des.event import Event, Timeout, all_of, any_of
from repro.des.process import Process
from repro.des.simulator import QueueDrained, Simulator
from repro.des.resources import Store

__all__ = [
    "Event",
    "Timeout",
    "all_of",
    "any_of",
    "Process",
    "QueueDrained",
    "Simulator",
    "Store",
]
