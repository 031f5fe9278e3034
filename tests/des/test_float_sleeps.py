"""A process may yield a non-negative float to sleep: the contract.

A float sleep must be indistinguishable from ``yield sim.timeout(d)``
built right before the yield: same wake time, same same-time tie order
(heap sequence numbers), same event count.
"""

import pytest

from repro.des import Simulator


def _run(use_floats: bool):
    """Three processes sleeping with many equal-time ties; returns the
    (time, process, step) wake order and the event count."""
    sim = Simulator()
    order = []

    def sleep(d):
        return d if use_floats else sim.timeout(d)

    def worker(name, delays, mixed):
        for i, d in enumerate(delays):
            # in the float run, ``mixed`` workers alternate floats and
            # Timeouts so both kinds tie against each other
            yield sim.timeout(d) if mixed and i % 2 else sleep(d)
            order.append((sim.now, name, i))

    sim.process(worker("a", [1.0, 0.0, 0.5, 0.5, 1.0], mixed=False))
    sim.process(worker("b", [0.5, 0.5, 0.0, 1.0, 1.0], mixed=True))
    sim.process(worker("c", [1.0, 1.0, 0.5, 0.0, 0.5], mixed=False))
    sim.run()
    return order, sim.events_run


def test_float_and_timeout_ties_fire_in_all_timeout_order():
    floats, n_floats = _run(use_floats=True)
    timeouts, n_timeouts = _run(use_floats=False)
    assert floats == timeouts
    assert n_floats == n_timeouts


def test_float_sleep_advances_clock_and_sends_none():
    sim = Simulator()
    seen = []

    def proc():
        got = yield 1.25
        seen.append((sim.now, got))
        yield 0.0
        seen.append((sim.now, None))
        return "done"

    p = sim.process(proc())
    assert sim.run(until=p) == "done"
    assert seen == [(1.25, None), (1.25, None)]


def test_events_run_counts_float_wakes():
    sim = Simulator()

    def proc():
        for _ in range(5):
            yield 0.1

    sim.process(proc())
    sim.run()
    # one boot, five wakes, and the process's own completion event
    assert sim.events_run == 7


def test_negative_float_raises_at_the_yield():
    sim = Simulator()

    def proc():
        try:
            yield -1.0
        except ValueError as exc:
            caught = str(exc)
        yield 2.0
        return caught

    p = sim.process(proc())
    assert sim.run(until=p) == "negative delay -1.0"
    assert sim.now == 2.0


def test_uncaught_negative_float_fails_the_process():
    sim = Simulator()

    def proc():
        yield -0.5

    sim.process(proc())
    with pytest.raises(ValueError, match="negative delay"):
        sim.run()
