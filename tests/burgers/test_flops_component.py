"""Tests for the Burgers flop model (Table I) and the simulation component."""

import functools
import math

import numpy as np
import pytest

from repro.burgers.component import (
    NORM_BOUND,
    BurgersProblem,
    NumericalInstability,
    max_keep_nan,
)
from repro.burgers.flops import (
    BURGERS_KERNEL_COST,
    EXPS_PER_CELL,
    NONEXP_FLOPS_PER_CELL,
    PHI_CALLS_PER_CELL,
    PHI_NONEXP_FLOPS,
    STENCIL_ONLY_FLOPS,
    grid_ghosted_cells,
    table1_row,
)
from repro.core.controller import SimulationController
from repro.core.grid import Grid
from repro.core.schedulers.unified import UnifiedHostScheduler
from repro.core.task import TaskKind
from repro.sunway.fastmath import FAST_EXP_FLOPS


# -- flop model -------------------------------------------------------------------

def test_flops_per_cell_is_paper_311():
    assert BURGERS_KERNEL_COST.flops_per_cell(fast_exp=True) == 311


def test_exp_share_matches_paper():
    """~215 of ~311 flops come from the 6 exponentials."""
    assert EXPS_PER_CELL * FAST_EXP_FLOPS == 216
    for extent in ((16, 16, 512), (128, 128, 1024)):
        row = table1_row(Grid(extent=extent))
        assert row["exp_share"] == 216 / 311


def test_breakdown_sums_to_budget():
    """The per-phi and stencil tallies add up to the 311 the scheduler
    charges, and Table I's total is that cost times the interior cells."""
    assert PHI_CALLS_PER_CELL * PHI_NONEXP_FLOPS + STENCIL_ONLY_FLOPS == 95
    assert NONEXP_FLOPS_PER_CELL + EXPS_PER_CELL * FAST_EXP_FLOPS == 311
    grid = Grid(extent=(128, 128, 1024))  # Table I's first row
    row = table1_row(grid)
    assert row["total_flops"] == grid.num_cells * 311 == 5_217_714_176
    assert row["total_flops"] == grid.num_cells * BURGERS_KERNEL_COST.flops_per_cell()


def test_nonexp_budget():
    assert NONEXP_FLOPS_PER_CELL == 95
    assert BURGERS_KERNEL_COST.stencil_flops == 95
    assert BURGERS_KERNEL_COST.exp_calls == 6


def test_ghosted_cells_matches_paper_totals():
    """Table I's Total Cells column is (N+2)^3-style: verified against the
    paper's own numbers."""
    assert grid_ghosted_cells(Grid(extent=(128, 128, 1024))) == 17_339_400
    assert grid_ghosted_cells(Grid(extent=(1024, 1024, 1024))) == 1_080_045_576


def test_table1_trend_rises_toward_311():
    small = table1_row(Grid(extent=(128, 128, 1024)))
    large = table1_row(Grid(extent=(1024, 1024, 1024)))
    assert 298 <= small["flops_per_cell"] <= 304  # paper: 299
    assert 308 <= large["flops_per_cell"] <= 311  # paper: 311
    assert large["flops_per_cell"] > small["flops_per_cell"]


# -- component -------------------------------------------------------------------------

def test_component_task_declarations():
    grid = Grid(extent=(8, 8, 8), layout=(2, 2, 2))
    prob = BurgersProblem(grid)
    tasks = prob.tasks()
    advance = tasks[0]
    assert advance.name == "timeAdvance"
    assert advance.kind is TaskKind.CPE_KERNEL
    assert advance.requires[0].dw == "old" and advance.requires[0].ghosts == 1
    assert advance.computes[0].name == "u"
    norm = tasks[1]
    assert norm.kind is TaskKind.REDUCTION
    assert norm.computes[0].is_reduction

    init = prob.init_tasks()[0]
    assert init.kind is TaskKind.MPE
    assert not init.requires


def test_component_without_reduction():
    grid = Grid(extent=(8, 8, 8), layout=(2, 2, 2))
    prob = BurgersProblem(grid, with_reduction=False)
    assert [t.name for t in prob.tasks()] == ["timeAdvance"]


@pytest.mark.parametrize("unified", [False, True], ids=["sunway", "unified"])
@pytest.mark.parametrize("where", ["rank0-second-patch", "rank1"])
def test_unorm_reduction_propagates_nan(where, unified):
    """A NaN patch norm must not hide behind a finite one, neither in a
    rank's local fold (NaN on its second patch) nor in the rank-order
    allreduce (NaN on rank 1 of 2)."""
    grid = Grid(extent=(8, 8, 8), layout=(2, 2, 1))
    prob = BurgersProblem(grid)
    tasks = prob.tasks()
    norm = next(t for t in tasks if t.name == "uNorm")
    finite, bad = norm.action, set()

    def nan_on_bad_patches(ctx):
        return math.nan if ctx.patch.patch_id in bad else finite(ctx)

    norm.action = nan_on_bad_patches
    factory = functools.partial(UnifiedHostScheduler, num_threads=2) if unified else None
    ctl = SimulationController(
        grid, tasks, prob.init_tasks(), num_ranks=2, scheduler_factory=factory
    )
    owned = [sorted(p for p, r in ctl.assignment.items() if r == rank) for rank in (0, 1)]
    bad.add(owned[0][1] if where == "rank0-second-patch" else owned[1][0])
    res = ctl.run(nsteps=1, dt=prob.stable_dt())
    norms = [dw.get_reduction(prob.norm_label) for dw in res.final_dws]
    assert len(norms) == 2 and all(math.isnan(v) for v in norms)


@pytest.mark.parametrize("bad", [10.0, math.nan], ids=["large", "nan"])
def test_blown_up_unorm_raises_numerical_instability(bad):
    """A patch whose ``uNorm`` share is NaN or above the bound stops the
    run at that step with the value, instead of carrying on from it."""
    grid = Grid(extent=(8, 8, 8), layout=(2, 2, 1))
    prob = BurgersProblem(grid)
    init = prob.init_tasks()
    exact = init[0].action

    def corrupted(ctx):
        exact(ctx)
        if ctx.patch.patch_id == 3:
            ctx.new_dw.get(prob.u_label, ctx.patch).interior[1, 1, 1] = bad

    init[0].action = corrupted
    ctl = SimulationController(grid, prob.tasks(), init, num_ranks=2)
    with pytest.raises(NumericalInstability, match="at step 1 ") as caught:
        ctl.run(nsteps=3, dt=prob.stable_dt())
    assert caught.value.step == 1
    value = caught.value.value
    assert math.isnan(value) if math.isnan(bad) else NORM_BOUND < value < bad


def test_max_keep_nan_equals_max_without_nan():
    pairs = [(0.5, 0.25), (0.25, 0.5), (1.0, 1.0), (0.0, -0.0), (-0.0, 0.0), (-math.inf, 2.0)]
    for a, b in pairs:
        got, want = max_keep_nan(a, b), max(a, b)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
    assert math.isnan(max_keep_nan(math.nan, 1.0)) and math.isnan(max_keep_nan(1.0, math.nan))


def test_component_rejects_unknown_kernel_impl():
    grid = Grid(extent=(8, 8, 8))
    with pytest.raises(ValueError):
        BurgersProblem(grid, kernel_impl="fortran")


def test_stable_dt_is_stable_and_positive():
    grid = Grid(extent=(16, 16, 16), layout=(2, 2, 2))
    prob = BurgersProblem(grid)
    dt = prob.stable_dt()
    dx = grid.spacing[0]
    assert 0 < dt < dx  # far below the advective CFL alone
    # halving safety halves dt
    assert prob.stable_dt(safety=0.25) == pytest.approx(dt / 2)


def test_unstable_dt_is_rejected():
    """A dt past the forward-Euler bound is refused, not run: 50x
    ``stable_dt()`` used to advance silently into a blow-up."""
    from repro.core.controller import SimulationController

    grid = Grid(extent=(8, 8, 8), layout=(2, 2, 2))
    prob = BurgersProblem(grid)
    ctl = SimulationController(
        grid, prob.tasks(), prob.init_tasks(), num_ranks=2, mode="async", real=True
    )
    with pytest.raises(ValueError, match=r"dt=.*stable_dt\(safety=1\.0\)="):
        ctl.run(nsteps=2, dt=50 * prob.stable_dt())


def test_kernel_impls_produce_identical_runs():
    """Full runs through the controller with each kernel implementation
    give bitwise-identical fields (the Algorithm 1 == Algorithm 2 claim
    at system level)."""
    from repro.core.controller import SimulationController

    fields = {}
    for impl in ("numpy", "cell_loop", "simd"):
        grid = Grid(extent=(8, 8, 8), layout=(2, 2, 2))
        prob = BurgersProblem(grid, kernel_impl=impl)
        ctl = SimulationController(
            grid, prob.tasks(), prob.init_tasks(), num_ranks=2, mode="async", real=True
        )
        res = ctl.run(nsteps=2, dt=prob.stable_dt())
        fields[impl] = {
            var.patch.patch_id: var.interior.copy()
            for dw in res.final_dws
            for var in dw.grid_variables()
        }
    for impl in ("cell_loop", "simd"):
        for pid in fields["numpy"]:
            assert np.array_equal(fields["numpy"][pid], fields[impl][pid]), (impl, pid)


def test_fast_exp_component_close_but_not_identical():
    """Sec. VI-C: the fast library shifts results slightly but acceptably."""
    from repro.core.controller import SimulationController

    outs = {}
    for fast in (False, True):
        grid = Grid(extent=(8, 8, 8), layout=(1, 1, 1))
        prob = BurgersProblem(grid, fast_exp=fast, with_reduction=False)
        ctl = SimulationController(
            grid, prob.tasks(), prob.init_tasks(), num_ranks=1, mode="async", real=True
        )
        res = ctl.run(nsteps=3, dt=prob.stable_dt())
        outs[fast] = next(iter(res.final_dws[0].grid_variables())).interior.copy()
    assert not np.array_equal(outs[False], outs[True])
    assert np.allclose(outs[False], outs[True], rtol=1e-3)
