"""Tests for ready-queue selection policies (out-of-order task choice)."""

import numpy as np
import pytest

from repro.burgers import BurgersProblem
from repro.core.controller import SimulationController
from repro.core.grid import Grid
from repro.core.schedulers.selection import POLICIES
from repro.verify import DEFAULT_LAYOUT


def run(policy, num_ranks=4, nsteps=3):
    grid = Grid(extent=(16, 16, 16), layout=(2, 2, 2))
    prob = BurgersProblem(grid)
    ctl = SimulationController(
        grid, prob.tasks(), prob.init_tasks(), num_ranks=num_ranks, real=True,
        scheduler_kwargs={"select_policy": policy},
    )
    res = ctl.run(nsteps=nsteps, dt=prob.stable_dt())
    field = {
        v.patch.patch_id: v.interior.copy()
        for dw in res.final_dws
        for v in dw.grid_variables()
    }
    return field, res


def test_all_policies_complete_with_identical_results():
    """Out-of-order selection must never change the physics."""
    ref, ref_res = run("fifo")
    for policy in list(POLICIES)[1:]:
        got, got_res = run(policy)
        for pid in ref:
            assert np.array_equal(ref[pid], got[pid]), (policy, pid)
        assert got_res.stats.kernels_offloaded == ref_res.stats.kernels_offloaded


def test_unknown_policy_rejected():
    with pytest.raises(ValueError, match="select_policy"):
        run("fastest_first")


def test_policies_can_change_execution_order():
    """On ``repro verify``'s default problem, most_messages dispatches the
    async kernels in a different order from fifo: the same kernels, so
    the verify matrix's policy axis checks a second schedule."""
    grid = Grid(extent=(8, 8, 8), layout=DEFAULT_LAYOUT)
    orders = {}
    for policy in ("fifo", "most_messages"):
        prob = BurgersProblem(grid)
        ctl = SimulationController(
            grid, prob.tasks(), prob.init_tasks(), num_ranks=2, mode="async", real=True,
            trace_enabled=True,
            scheduler_kwargs={"select_policy": policy},
        )
        ctl.run(nsteps=1, dt=prob.stable_dt())
        orders[policy] = [
            s.name for r in range(2) for s in ctl.trace.spans_for(r, "cpe")
            if s.name.startswith("timeAdvance")
        ]
    assert orders["fifo"] != orders["most_messages"]
    assert sorted(orders["fifo"]) == sorted(orders["most_messages"])
