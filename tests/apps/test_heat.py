"""Tests for the heat-equation application component."""

import numpy as np
import pytest

from repro.core.controller import SimulationController
from repro.core.grid import Grid
from repro.core.patch import Region
from tests.apps.heat import HeatProblem, heat_exact


def run_heat(extent=(16, 16, 16), layout=(2, 2, 2), num_ranks=2, nsteps=5,
             mode="async", alpha=0.1, safety=0.4):
    grid = Grid(extent=extent, layout=layout)
    prob = HeatProblem(grid, alpha=alpha)
    ctl = SimulationController(
        grid, prob.tasks(), prob.init_tasks(), num_ranks=num_ranks,
        mode=mode, real=True,
    )
    dt = prob.stable_dt(safety)
    res = ctl.run(nsteps=nsteps, dt=dt)
    return grid, prob, res


# -- exact solution ------------------------------------------------------------

def test_exact_solution_satisfies_boundaries():
    grid = Grid(extent=(8, 8, 8))
    # ghost cells just outside the wall mirror sin's small negative lobe;
    # the exact field at the wall cell centres is near zero and decays
    wall = heat_exact(grid, Region((0, 0, 0), (1, 8, 8)), t=0.0, alpha=0.1)
    inner = heat_exact(grid, Region((3, 3, 3), (5, 5, 5)), t=0.0, alpha=0.1)
    assert wall.max() < inner.max()


def test_exact_solution_decays_in_time():
    grid = Grid(extent=(8, 8, 8))
    region = Region((0, 0, 0), (8, 8, 8))
    a = heat_exact(grid, region, t=0.0, alpha=0.1)
    b = heat_exact(grid, region, t=0.05, alpha=0.1)
    assert b.max() < a.max()
    assert np.allclose(b / a, b.flat[0] / a.flat[0])  # pure amplitude decay


# -- component ---------------------------------------------------------------------

def test_validation():
    with pytest.raises(ValueError):
        HeatProblem(Grid(extent=(8, 8, 8)), alpha=-1.0)


def test_heat_runs_and_matches_exact():
    grid, prob, res = run_heat(nsteps=10)
    errs = prob.solution_errors(res.final_dws, t=res.sim_time)
    # amplitude at t: exp(-3 pi^2 alpha t); errors well below the field
    assert errs["linf"] < 0.01
    assert errs["l2"] < errs["linf"]


def test_heat_convergence_with_resolution():
    errors = {}
    final_t = 2e-3
    for n in (8, 16):
        grid = Grid(extent=(n, n, n), layout=(2, 2, 2))
        prob = HeatProblem(grid)
        dt = final_t / 40  # fixed small dt isolates spatial error
        ctl = SimulationController(
            grid, prob.tasks(), prob.init_tasks(), num_ranks=2, real=True
        )
        res = ctl.run(nsteps=40, dt=dt)
        errors[n] = prob.solution_errors(res.final_dws, t=res.sim_time)["linf"]
    # second-order stencil with exact-solution BCs: ~4x per refinement
    assert errors[8] / errors[16] > 2.5


def test_heat_distribution_invariance():
    ref = None
    for num_ranks, mode in [(1, "async"), (4, "sync"), (2, "mpe_only")]:
        _, _, res = run_heat(num_ranks=num_ranks, mode=mode, nsteps=4)
        field = {
            v.patch.patch_id: v.interior.copy()
            for dw in res.final_dws
            for v in dw.grid_variables()
        }
        if ref is None:
            ref = field
        else:
            for pid in ref:
                assert np.array_equal(ref[pid], field[pid]), (num_ranks, mode, pid)


def test_energy_reduction_decreases():
    """Dirichlet walls leak heat: total thermal energy must fall."""
    grid, prob, res = run_heat(nsteps=10)
    final_energy = res.final_dws[0].get_reduction(prob.energy_label)
    # initial energy of the sine product over the unit box: (2/pi)^3
    initial = (2.0 / np.pi) ** 3
    assert 0 < final_energy < initial


def test_heat_on_harness_cost_model():
    """The component runs in pure performance-model mode too."""
    from repro.harness import calibration

    grid = Grid(extent=(256, 256, 1024), layout=(8, 8, 2))
    prob = HeatProblem(grid)
    ctl = SimulationController(
        grid, prob.tasks(), prob.init_tasks(), num_ranks=16, mode="async",
        real=False, cost_model=calibration.cost_model(simd=True),
        fabric_config=calibration.FABRIC,
    )
    res = ctl.run(nsteps=3, dt=prob.stable_dt())
    assert res.time_per_step > 0
    # 17 flops/cell, no exponentials
    assert res.flops_per_step == pytest.approx(256 * 256 * 1024 * 17)
