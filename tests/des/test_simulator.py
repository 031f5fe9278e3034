"""Unit tests for the DES event loop, clock, and run() semantics."""

import pytest

from repro.des import Simulator
from repro.des.simulator import EmptySchedule, QueueDrained


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_clock_custom_start():
    sim = Simulator(start_time=5.0)
    assert sim.now == 5.0
    sim.timeout(1.0)
    sim.run()
    assert sim.now == 6.0


def test_timeout_advances_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(2.5)

    sim.process(proc(sim))
    sim.run()
    assert sim.now == 2.5


def test_zero_delay_timeout_is_legal():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(0.0)
        return sim.now

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == 0.0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_run_until_time_stops_clock_exactly():
    sim = Simulator()

    def proc(sim):
        while True:
            yield sim.timeout(1.0)

    sim.process(proc(sim))
    sim.run(until=3.5)
    assert sim.now == 3.5


def test_run_until_past_time_rejected():
    sim = Simulator()
    sim.timeout(1.0)
    sim.run()
    with pytest.raises(ValueError):
        sim.run(until=0.5)


def test_run_until_event_returns_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        return 42

    p = sim.process(proc(sim))
    assert sim.run(until=p) == 42
    assert sim.now == 1.0


def test_run_until_unreachable_event_raises_deadlock():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(RuntimeError, match="deadlock"):
        sim.run(until=ev)
    with pytest.raises(QueueDrained):
        sim.run(until=ev)


def test_step_on_empty_queue_raises():
    sim = Simulator()
    with pytest.raises(EmptySchedule):
        sim.step()


def test_same_time_events_fire_fifo():
    sim = Simulator()
    order = []

    def proc(sim, tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in "abcde":
        sim.process(proc(sim, tag))
    sim.run()
    assert order == list("abcde")


def test_determinism_two_identical_runs():
    def build():
        sim = Simulator()
        trace = []

        def a(sim):
            for _ in range(3):
                yield sim.timeout(1.0)
                trace.append(("a", sim.now))

        def b(sim):
            for _ in range(3):
                yield sim.timeout(1.0)
                trace.append(("b", sim.now))

        sim.process(a(sim))
        sim.process(b(sim))
        sim.run()
        return trace

    assert build() == build()


def test_max_events_guard_catches_zero_delay_loop():
    sim = Simulator()

    def spinner(sim):
        while True:
            yield sim.timeout(0.0)

    sim.process(spinner(sim))
    with pytest.raises(RuntimeError, match="max_events"):
        sim.run(max_events=1000)


def test_max_events_guard_allows_normal_completion():
    sim = Simulator()

    def proc(sim):
        for _ in range(5):
            yield sim.timeout(1.0)

    sim.process(proc(sim))
    sim.run(max_events=1000)
    assert sim.now == 5.0


def _seven_event_run() -> tuple[Simulator, list]:
    """Boot + five timeouts + the process's own completion: 7 events."""
    sim = Simulator()

    def proc(sim):
        for _ in range(5):
            yield sim.timeout(1.0)

    sim.process(proc(sim))
    stepped = []
    real_step = sim.step

    def counting_step():
        real_step()
        stepped.append(sim.now)

    sim.step = counting_step
    return sim, stepped


def test_max_events_budget_is_exact():
    sim, stepped = _seven_event_run()
    with pytest.raises(RuntimeError, match="max_events=6"):
        sim.run(max_events=6)
    assert len(stepped) == 6
    assert sim.events_run == 6  # stored on the raise path too

    sim, stepped = _seven_event_run()
    sim.run(max_events=7)
    assert len(stepped) == 7 and sim.now == 5.0
    assert sim.events_run == 7


def test_run_counts_its_events_in_every_mode():
    sim, stepped = _seven_event_run()
    sim.run(until=2.5)  # horizon mode
    assert sim.events_run == len(stepped) == 3
    target = sim.timeout(10.0)
    sim.run(until=target)  # event mode: the rest of proc, then target
    assert sim.events_run == len(stepped) == 8
    sim.run()
    assert sim.events_run == len(stepped) == 8


def test_event_that_raises_in_step_is_counted():
    """An unhandled process failure raises out of ``step``; the event was
    still processed, so ``events_run`` matches a count of ``step`` calls."""
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        raise ValueError("boom")

    sim.process(proc(sim))
    calls = []
    real_step = sim.step

    def counting_step():
        calls.append(sim.now)
        real_step()

    sim.step = counting_step
    with pytest.raises(ValueError, match="boom"):
        sim.run()
    assert sim.events_run == len(calls) == 3
