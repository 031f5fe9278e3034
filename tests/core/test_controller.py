"""Tests for the simulation controller itself."""

import math

import pytest

from repro.burgers import BurgersProblem
from repro.core.controller import SimulationController
from repro.core.grid import Grid
from repro.core.task import Task, TaskKind
from repro.core.varlabel import VarLabel


def make_controller(real=True, mode="async", num_ranks=2, trace=False, grid=None, **kw):
    grid = grid or Grid(extent=(16, 16, 16), layout=(2, 2, 2))
    prob = BurgersProblem(grid)
    return grid, prob, SimulationController(
        grid, prob.tasks(), prob.init_tasks(),
        num_ranks=num_ranks, mode=mode, real=real, trace_enabled=trace, **kw,
    )


def test_model_mode_times_equal_real_mode_times():
    """Real numerics add zero *virtual* time: the performance model and
    the real execution follow the identical schedule."""
    _, prob, ctl_real = make_controller(real=True)
    _, _, ctl_model = make_controller(real=False)
    dt = prob.stable_dt()
    r = ctl_real.run(nsteps=3, dt=dt)
    m = ctl_model.run(nsteps=3, dt=dt)
    assert r.time_per_step == m.time_per_step
    assert r.step_times == m.step_times
    assert r.stats.kernels_offloaded == m.stats.kernels_offloaded
    assert r.stats.messages_sent == m.stats.messages_sent


def test_step_times_sum_to_total():
    _, prob, ctl = make_controller()
    res = ctl.run(nsteps=4, dt=prob.stable_dt())
    assert sum(res.step_times) == pytest.approx(res.total_time)
    assert len(res.step_times) == 4
    assert all(t > 0 for t in res.step_times)


def test_nsteps_validation():
    _, prob, ctl = make_controller()
    with pytest.raises(ValueError):
        ctl.run(nsteps=0, dt=1e-3)


@pytest.mark.parametrize(
    "bad",
    [
        {"dt": math.nan},
        {"dt": math.inf},
        {"dt": -math.inf},
        {"dt": 0.0},
        {"dt": -1e-3},
        {"t0": math.nan},
        {"t0": -math.inf},
        {"start_step": -1},
    ],
    ids=repr,
)
def test_run_rejects_meaningless_time_arguments(bad):
    """A NaN, infinite, zero or negative ``dt``, a non-finite ``t0`` or a
    negative ``start_step`` raises a ValueError naming the argument before
    anything is simulated."""
    _, _, ctl = make_controller(real=False)
    (name,) = bad
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        ctl.run(**{"nsteps": 1, "dt": 1e-3, **bad})
    assert ctl.sim.now == 0.0


def test_init_with_ghost_requirements_rejected():
    grid = Grid(extent=(8, 8, 8), layout=(2, 2, 2))
    prob = BurgersProblem(grid)
    bad_init = Task("init", kind=TaskKind.MPE, action=lambda ctx: None)
    bad_init.requires_(VarLabel("u"), dw="old", ghosts=1)
    bad_init.computes_(VarLabel("u"))
    with pytest.raises(ValueError, match="must not require ghost"):
        SimulationController(grid, prob.tasks(), [bad_init], num_ranks=2)


def test_flops_per_step_counts_kernels():
    _, prob, ctl = make_controller(num_ranks=1)
    res = ctl.run(nsteps=2, dt=prob.stable_dt())
    # 16^3 cells x 311 flops per step (fast_exp=False still counts via
    # the cost model's fast_exp default True)
    assert res.flops_per_step == pytest.approx(16**3 * 311)


def test_gflops_zero_guard():
    from repro.core.controller import RunResult
    from repro.core.schedulers.base import SchedulerStats
    from repro.core.trace import Tracer

    r = RunResult(
        num_ranks=1, nsteps=1, total_time=0.0, time_per_step=0.0, step_times=[0.0],
        stats=SchedulerStats(), rank_stats=[], flops_per_step=0.0,
        messages_sent=0, bytes_sent=0, final_dws=[], trace=Tracer(False), sim_time=0.0,
    )
    assert r.gflops == 0.0


def test_trace_disabled_by_default():
    _, prob, ctl = make_controller(trace=False)
    res = ctl.run(nsteps=1, dt=prob.stable_dt())
    assert res.trace.spans == []


def test_rank_stats_per_rank():
    _, prob, ctl = make_controller(num_ranks=4)
    res = ctl.run(nsteps=2, dt=prob.stable_dt())
    assert len(res.rank_stats) == 4
    total = sum(s.kernels_offloaded for s in res.rank_stats)
    assert total == res.stats.kernels_offloaded == 2 * 8


def test_custom_balancer_changes_assignment():
    _, prob, ctl_sfc = make_controller(balancer="sfc", num_ranks=4)
    _, _, ctl_rr = make_controller(balancer="roundrobin", num_ranks=4)
    assert ctl_sfc.assignment != ctl_rr.assignment


def test_run_reports_its_own_des_event_count(monkeypatch):
    """``RunResult.des_events`` equals an outside count of
    ``Simulator.step`` calls, the way the benchmark counts events."""
    from repro.des.simulator import Simulator

    _, prob, ctl = make_controller(real=False, num_ranks=4)
    steps = []
    real_step = Simulator.step

    def counting_step(self):
        steps.append(None)
        real_step(self)

    monkeypatch.setattr(Simulator, "step", counting_step)
    res = ctl.run(nsteps=3, dt=prob.stable_dt())
    assert res.des_events == len(steps) > 0
    again = ctl.run(nsteps=2, dt=prob.stable_dt())  # per run, not cumulative
    assert again.des_events == len(steps) - res.des_events > 0


def test_geometry_is_compiled_once_per_grid(monkeypatch):
    """Building a 128-rank paper-scale controller and running it reads
    patch geometry from the grid's tables, not by rebuilding patches
    per rank, task and step."""
    from repro.harness.problems import problem_by_name

    grid = problem_by_name("128x128x512").grid()
    calls = []
    real_patch = Grid.patch

    def counting_patch(self, index):
        calls.append(index)
        return real_patch(self, index)

    monkeypatch.setattr(Grid, "patch", counting_patch)
    prob = BurgersProblem(grid)
    ctl = SimulationController(
        grid, prob.tasks(), prob.init_tasks(), num_ranks=128, mode="async", real=False
    )
    ctl.run(nsteps=2, dt=prob.stable_dt())
    assert len(calls) <= 8 * grid.num_patches
