"""Unit tests for events, conditions and the process lifecycle."""

import pytest

from repro.des import Simulator
from repro.des.event import all_of, any_of


# -- plain events ----------------------------------------------------------

def test_event_succeed_delivers_value():
    sim = Simulator()
    ev = sim.event()

    def proc(sim, ev):
        got = yield ev
        return got

    p = sim.process(proc(sim, ev))
    ev.succeed("payload")
    sim.run()
    assert p.value == "payload"


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)
    with pytest.raises(RuntimeError):
        ev.fail(ValueError("x"))


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()

    def proc(sim, ev):
        with pytest.raises(KeyError):
            yield ev
        return "handled"

    p = sim.process(proc(sim, ev))
    ev.fail(KeyError("boom"))
    sim.run()
    assert p.value == "handled"


def test_unwaited_failed_event_raises_at_run():
    sim = Simulator()
    ev = sim.event()
    ev.fail(ValueError("nobody caught me"))
    with pytest.raises(ValueError, match="nobody caught me"):
        sim.run()


def test_value_before_trigger_is_error():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(RuntimeError):
        _ = ev.value
    with pytest.raises(RuntimeError):
        _ = ev.ok


def test_fail_requires_exception_instance():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")  # type: ignore[arg-type]


def test_waiting_on_processed_event_resumes_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("early")
    sim.run()
    assert ev.processed

    def proc(sim, ev):
        got = yield ev
        return (got, sim.now)

    p = sim.process(proc(sim, ev))
    sim.run()
    assert p.value == ("early", 0.0)


# -- processes --------------------------------------------------------------

def test_process_return_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1)
        return {"answer": 42}

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == {"answer": 42}


def test_process_waits_on_other_process():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(2)
        return "child-done"

    def parent(sim):
        got = yield sim.process(child(sim))
        return (got, sim.now)

    p = sim.process(parent(sim))
    sim.run()
    assert p.value == ("child-done", 2.0)


def test_process_exception_propagates_to_waiter():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1)
        raise RuntimeError("kernel fault")

    def parent(sim):
        try:
            yield sim.process(child(sim))
        except RuntimeError as exc:
            return f"caught:{exc}"

    p = sim.process(parent(sim))
    sim.run()
    assert p.value == "caught:kernel fault"


def test_yielding_non_event_is_error():
    sim = Simulator()

    def proc(sim):
        yield 123  # type: ignore[misc]

    sim.process(proc(sim))
    with pytest.raises(TypeError, match="must yield Event"):
        sim.run()


def test_non_generator_rejected():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)  # type: ignore[arg-type]


# -- conditions ---------------------------------------------------------------

def test_all_of_waits_for_every_event():
    sim = Simulator()
    t1, t2, t3 = sim.timeout(1, "a"), sim.timeout(3, "b"), sim.timeout(2, "c")

    def proc(sim):
        got = yield all_of(sim, [t1, t2, t3])
        return (sorted(got.values()), sim.now)

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == (["a", "b", "c"], 3.0)


def test_any_of_fires_on_first():
    sim = Simulator()
    t1, t2 = sim.timeout(5, "slow"), sim.timeout(1, "fast")

    def proc(sim):
        got = yield any_of(sim, [t1, t2])
        return (list(got.values()), sim.now)

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == (["fast"], 1.0)


def test_all_of_empty_fires_immediately():
    sim = Simulator()

    def proc(sim):
        got = yield all_of(sim, [])
        return (got, sim.now)

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == ({}, 0.0)


def test_condition_fails_if_child_fails():
    sim = Simulator()
    ok = sim.timeout(2, "fine")
    bad = sim.event()

    def proc(sim):
        with pytest.raises(OSError):
            yield all_of(sim, [ok, bad])
        return "survived"

    p = sim.process(proc(sim))
    bad.fail(OSError("dma error"))
    sim.run()
    assert p.value == "survived"


def test_condition_with_already_processed_children():
    sim = Simulator()
    t1 = sim.timeout(1, "x")
    sim.run()
    t2 = sim.timeout(1, "y")

    def proc(sim):
        got = yield all_of(sim, [t1, t2])
        return sorted(got.values())

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == ["x", "y"]


def test_condition_rejects_foreign_events():
    sim1, sim2 = Simulator(), Simulator()
    with pytest.raises(ValueError):
        all_of(sim1, [sim2.timeout(1)])
