"""Shared fixtures for the verification-subsystem tests.

The mutation self-tests all start from the same clean recorded run: a
2-rank async Burgers problem with an :class:`EventRecorder` on rank 0's
lifecycle bus.  Recording once per session keeps the suite fast; every
test mutates its own copy of the stream.
"""

import dataclasses

import pytest

from repro.burgers import BurgersProblem
from repro.core.controller import SimulationController
from repro.core.grid import Grid
from tests.verify.replay import EventRecorder


@dataclasses.dataclass
class RecordedRun:
    """A clean rank-0 event stream plus what replay needs to check it."""

    events: list
    graph: object
    costs: object

    def copy_events(self):
        return list(self.events)


@pytest.fixture(scope="session")
def recorded_run() -> RecordedRun:
    grid = Grid(extent=(8, 8, 8), layout=(2, 2, 1))
    problem = BurgersProblem(grid)
    ctl = SimulationController(
        grid,
        problem.tasks(),
        problem.init_tasks(),
        num_ranks=2,
        mode="async",
        real=True,
    )
    recorder = EventRecorder()
    sched = ctl.schedulers[0]
    sched.lifecycle.subscribe(recorder)
    ctl.run(nsteps=2, dt=problem.stable_dt())
    assert recorder.events, "recorder saw no events"
    return RecordedRun(events=recorder.events, graph=sched.graph, costs=sched.costs)
