"""phi tables: one evaluation per (grid, axis, t), sliced wherever phi is needed.

The kernel coefficients and the initial and boundary conditions all read
phi through :func:`~repro.burgers.phi.phi_cells`.  These tests pin the
number of phi evaluations a step costs, and prove that a slice of a table
is bitwise what evaluating phi on just those cell centres gives.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.burgers import component as _component
from repro.burgers.component import BurgersProblem
from repro.burgers.exact import exact_on_region
from repro.burgers.kernel import apply_kernel
from repro.burgers.phi import phi, phi_cells
from repro.core.controller import SimulationController
from repro.core.grid import Grid
from repro.core.variables import CCVariable
from repro.core.varlabel import VarLabel
from repro.sunway.fastmath import fast_exp, ieee_exp
from tests.strategies import grids

U = VarLabel("u")
#: Exponential calls one evaluation of :func:`phi` makes.
EXPS_PER_PHI = 3


class CountingExp:
    """An exponential that counts its calls.

    Each instance is a distinct ``exp`` argument, so it starts with cold
    phi tables whatever ran before.
    """

    def __init__(self, base=ieee_exp):
        self.base = base
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.base(x)


def centres(grid, axis, lo, hi):
    d = grid.spacing[axis]
    return grid.domain_low[axis] + (np.arange(lo, hi, dtype=np.float64) + 0.5) * d


def test_one_step_evaluates_phi_once_per_axis():
    """Kernel, initial values and boundary faces of every patch of an
    8x8x2-patch grid at one t share three phi evaluations in total."""
    grid = Grid(extent=(32, 32, 8), layout=(8, 8, 2))
    exp = CountingExp()
    t = 0.0125
    for patch in grid.patches():
        u_old = CCVariable(U, patch, ghosts=1)
        u_old.interior[...] = exact_on_region(grid, patch.region, t, exp=exp)
        for axis, side in grid.boundary_faces(patch):
            region = patch.ghost_region(axis, side)
            u_old.set_region(region, exact_on_region(grid, region, t, exp=exp))
        apply_kernel(u_old, CCVariable(U, patch, ghosts=1), grid, t, 1e-4, exp=exp)
    assert 0 < exp.calls <= 3 * EXPS_PER_PHI


@pytest.mark.parametrize("mode", ["async", "sync"])
def test_real_run_evaluates_phi_once_per_axis_and_step(monkeypatch, mode):
    exp = CountingExp(fast_exp)
    monkeypatch.setattr(_component, "exp_function", lambda fast: exp)
    grid = Grid(extent=(16, 16, 8), layout=(2, 2, 2))
    burgers = BurgersProblem(grid, fast_exp=True)
    nsteps = 4
    ctl = SimulationController(
        grid, burgers.tasks(), burgers.init_tasks(), num_ranks=4, mode=mode, real=True
    )
    ctl.run(nsteps=nsteps, dt=burgers.stable_dt(), t0=0.01)
    phi_evaluations = exp.calls / EXPS_PER_PHI
    assert 0 < phi_evaluations <= 3 * (nsteps + 1)


@settings(max_examples=80, deadline=None)
@given(
    grid=grids(),
    axis=st.integers(0, 2),
    lo=st.integers(-4, 20),
    length=st.integers(0, 24),
    t=st.floats(0.0, 2.0),
    fast=st.booleans(),
)
def test_property_table_slices_equal_direct_phi(grid, axis, lo, length, t, fast):
    """Any range, ghost cells and ranges beyond one ghost layer included."""
    exp = fast_exp if fast else ieee_exp
    hi = lo + length
    got = phi_cells(grid, axis, lo, hi, t, exp=exp)
    assert np.array_equal(got, phi(centres(grid, axis, lo, hi), t, exp=exp))
    if length:
        x = grid.domain_low[axis] + (lo + 0.5) * grid.spacing[axis]
        single = phi_cells(grid, axis, lo, lo + 1, t, exp=exp)
        assert float(single[0]) == float(phi(x, t, exp=exp))


@pytest.mark.parametrize("exp", [ieee_exp, fast_exp], ids=["ieee", "fast"])
def test_every_single_cell_slice_equals_scalar_phi(exp):
    grid = Grid(extent=(6, 5, 4), domain_low=(-0.3, 0.1, 0.4), domain_high=(0.9, 0.7, 0.6))
    t = 0.21
    for axis in range(3):
        for i in range(-3, grid.extent[axis] + 3):
            x = grid.domain_low[axis] + (i + 0.5) * grid.spacing[axis]
            assert float(phi_cells(grid, axis, i, i + 1, t, exp=exp)[0]) == float(phi(x, t, exp=exp))


def test_table_slices_are_read_only():
    grid = Grid(extent=(8, 8, 8))
    view = phi_cells(grid, 0, -1, 9, 0.3)
    before = view.copy()
    with pytest.raises(ValueError):
        view[0] = 0.0
    wide = phi_cells(grid, 1, -3, 12, 0.3)
    with pytest.raises(ValueError):
        wide[...] = 1.0
    assert np.array_equal(phi_cells(grid, 0, -1, 9, 0.3), before)
    # a region sample built from the tables is the caller's to write
    out = exact_on_region(grid, grid.patch((0, 0, 0)).region, 0.3)
    out[0, 0, 0] = 0.0
