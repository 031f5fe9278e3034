"""Measurement from outside the program: timers, spans and call counters.

The benchmark never edits the runtime.  It replaces public functions of
``repro`` with wrappers for the duration of a batch and restores them
afterwards.  Every wrapper is installed where the caller looks the name
up: class attributes for methods (``Simulator.run`` reaches
``Simulator.step`` through ``self``), and module globals for functions
(``burgers.component`` calls ``_kernel.apply_kernel`` through the
``repro.burgers.kernel`` module and ``exact_on_region`` through its own
namespace).

Two levels exist:

* :class:`SetupTimer` -- always on.  Times ``SimulationController``
  construction and keeps every controller a cell builds, including the
  ones ``ResilientRunner`` rebuilds internally.  One pair of clock reads
  per controller; it is the ``setup_s`` measurement of the untraced run.
* :class:`Tracer` -- the traced run only.  Spans (name, start, end,
  parent) around the layer boundaries, and plain counters for functions
  called once per simulated event (``Simulator.step``, ``Grid.patch``),
  which would cost too much as spans.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import functools
import time
import typing as _t

from repro.burgers import component as _component
from repro.burgers import kernel as _kernel
from repro.core.controller import SimulationController
from repro.core.datawarehouse import DataWarehouse
from repro.core.grid import Grid
from repro.core.loadbalancer import LoadBalancer
from repro.core.taskgraph import TaskGraph
from repro.core.variables import CCVariable
from repro.des.simulator import Simulator
from repro.faults.injector import FaultInjector
from repro.faults.recovery import ResilientRunner
from repro.io.uda import UdaArchive

clock = time.perf_counter

#: Span names, one per wrapped layer boundary (``cell`` is the root the
#: workload loop opens around each cell).
SPAN_NAMES = (
    "cell",
    "core.controller.init",
    "core.taskgraph.compile",
    "core.loadbalancer.assign",
    "core.controller.run",
    "faults.resilient_run",
    "des.run",
    "burgers.apply_kernel",
    "burgers.exact_on_region",
    "core.variables.set_region",
    "io.uda.save",
    "io.uda.load",
)


@contextlib.contextmanager
def patched(targets: _t.Iterable[tuple[object, str, _t.Callable]]):
    """Temporarily replace ``owner.name`` with ``make(original)`` for each
    ``(owner, name, make)``; always restores the originals."""
    saved = []
    try:
        for owner, name, make in targets:
            original = getattr(owner, name)
            saved.append((owner, name, original))
            setattr(owner, name, make(original))
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


class SetupTimer:
    """Host seconds spent constructing controllers, and the controllers."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.controllers: list[SimulationController] = []

    def take(self) -> tuple[float, list[SimulationController]]:
        """Return and reset what was accumulated since the last call."""
        out = (self.seconds, self.controllers)
        self.seconds, self.controllers = 0.0, []
        return out

    def installed(self):
        def make(init):
            @functools.wraps(init)
            def timed_init(ctl, *args, **kwargs):
                t0 = clock()
                try:
                    init(ctl, *args, **kwargs)
                finally:
                    self.seconds += clock() - t0
                self.controllers.append(ctl)

            return timed_init

        return patched([(SimulationController, "__init__", make)])


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root


class Tracer:
    """In-memory spans and counters for one traced batch."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: collections.Counter[str] = collections.Counter()
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, clock(), 0.0, parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = clock()

    def _spanning(self, name: str):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)

            return wrapper

        return make

    def _counting(self, name: str):
        counts = self.counts

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def installed(self):
        s, c = self._spanning, self._counting
        return patched(
            [
                (SimulationController, "__init__", s("core.controller.init")),
                (SimulationController, "run", s("core.controller.run")),
                (TaskGraph, "__init__", s("core.taskgraph.compile")),
                (LoadBalancer, "assign", s("core.loadbalancer.assign")),
                (ResilientRunner, "run", s("faults.resilient_run")),
                (Simulator, "run", s("des.run")),
                (_kernel, "apply_kernel", s("burgers.apply_kernel")),
                (_component, "exact_on_region", s("burgers.exact_on_region")),
                (CCVariable, "set_region", s("core.variables.set_region")),
                (UdaArchive, "save", s("io.uda.save")),
                (UdaArchive, "load", s("io.uda.load")),
                (Simulator, "step", c("des.events")),
                (Grid, "patch", c("core.grid.patch_calls")),
                (DataWarehouse, "put", c("core.dw.puts")),
                (DataWarehouse, "get", c("core.dw.gets")),
                (FaultInjector, "kernel_fault", c("faults.offload_attempts")),
            ]
        )

    # -- analysis -----------------------------------------------------------
    def durations(self) -> dict[str, float]:
        """Total seconds per span name (nested calls of one name included
        once each; none of the wrapped functions recurse)."""
        out = dict.fromkeys(SPAN_NAMES, 0.0)
        for sp in self.spans:
            out[sp.name] += sp.end - sp.start
        return out

    def self_times(self) -> dict[str, float]:
        """Seconds per span name minus the time its child spans cover."""
        out = dict.fromkeys(SPAN_NAMES, 0.0)
        for sp in self.spans:
            out[sp.name] += sp.end - sp.start
            if sp.parent >= 0:
                out[self.spans[sp.parent].name] -= sp.end - sp.start
        return out

    def calls(self) -> dict[str, int]:
        """Number of spans per span name."""
        out = dict.fromkeys(SPAN_NAMES, 0)
        for sp in self.spans:
            out[sp.name] += 1
        return out
