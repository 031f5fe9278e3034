"""Tests for the athread offload runtime and completion flags."""

import pytest

from repro.des import Simulator
from repro.sunway.athread import AthreadRuntime, CompletionFlag


def test_flag_faaw_semantics():
    sim = Simulator()
    flag = CompletionFlag(sim)
    assert flag.value == 0
    assert flag.faaw() == 0  # returns old value
    assert flag.value == 1
    assert flag.faaw(3) == 1
    assert flag.value == 4
    flag.clear()
    assert flag.value == 0


def test_flag_reached_event():
    sim = Simulator()
    flag = CompletionFlag(sim)

    def proc(sim, flag):
        val = yield flag.reached(2)
        return (val, sim.now)

    p = sim.process(proc(sim, flag))

    def bumper(sim, flag):
        yield sim.timeout(1)
        flag.faaw()
        yield sim.timeout(1)
        flag.faaw()

    sim.process(bumper(sim, flag))
    sim.run()
    assert p.value == (2, 2.0)


def test_flag_reached_already_satisfied():
    sim = Simulator()
    flag = CompletionFlag(sim)
    flag.faaw(5)
    ev = flag.reached(3)
    assert ev.triggered


def test_spawn_completes_after_launch_plus_duration():
    sim = Simulator()
    rt = AthreadRuntime(sim, launch_latency=1e-5)
    handle = rt.spawn(duration=1e-3, name="k0")
    assert not handle.done
    sim.run(until=handle.event)
    assert handle.done
    assert sim.now == pytest.approx(1e-3 + 1e-5)
    assert handle.flag.value == 1


def test_spawn_while_busy_raises():
    sim = Simulator()
    rt = AthreadRuntime(sim)
    rt.spawn(duration=1.0)
    with pytest.raises(RuntimeError, match="busy"):
        rt.spawn(duration=1.0)
    sim.run()
    # after completion, group is free again
    handle = rt.spawn(duration=1.0)
    sim.run()
    assert handle.done


def test_on_complete_runs_at_completion_time():
    sim = Simulator()
    rt = AthreadRuntime(sim, launch_latency=0.0)
    seen = []
    rt.spawn(duration=2.0, on_complete=lambda: seen.append(sim.now))
    assert seen == []  # not yet
    sim.run()
    assert seen == [2.0]


def test_cpe_grouping_extension():
    sim = Simulator()
    rt = AthreadRuntime(sim, num_groups=4)
    # groups are independent engines
    h0 = rt.spawn(duration=1.0, group=0)
    h1 = rt.spawn(duration=2.0, group=1)
    with pytest.raises(RuntimeError):
        rt.spawn(duration=1.0, group=0)
    sim.run()
    assert h0.done and h1.done


def test_grouping_must_divide_cpes():
    sim = Simulator()
    with pytest.raises(ValueError):
        AthreadRuntime(sim, num_groups=3)
    with pytest.raises(ValueError):
        AthreadRuntime(sim, num_groups=0)


def test_unknown_group_rejected():
    sim = Simulator()
    rt = AthreadRuntime(sim, num_groups=2)
    with pytest.raises(ValueError):
        rt.spawn(duration=1.0, group=5)


def test_negative_duration_rejected():
    sim = Simulator()
    rt = AthreadRuntime(sim)
    with pytest.raises(ValueError):
        rt.spawn(duration=-1.0)
    with pytest.raises(ValueError):
        AthreadRuntime(sim, launch_latency=-1e-6)


def test_shared_flag_counts_multiple_kernels():
    """The scheduler clears one flag and reuses it across offloads."""
    sim = Simulator()
    rt = AthreadRuntime(sim, num_groups=2, launch_latency=0.0)
    flag = CompletionFlag(sim)
    rt.spawn(duration=1.0, group=0, flag=flag)
    rt.spawn(duration=2.0, group=1, flag=flag)
    sim.run()
    assert flag.value == 2


def test_completion_event_carries_handle():
    sim = Simulator()
    rt = AthreadRuntime(sim)
    h = rt.spawn(duration=0.5)
    sim.run()
    assert h.event.value is h
