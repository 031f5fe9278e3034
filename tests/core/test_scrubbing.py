"""Tests for data-warehouse scrubbing (memory reclamation)."""

import numpy as np
import pytest

from repro.burgers import BurgersProblem
from repro.core.controller import SimulationController
from repro.core.grid import Grid
from repro.core.loadbalancer import LoadBalancer
from repro.core.taskgraph import TaskGraph


def run(num_ranks=2, scrub=True, nsteps=3, mode="async"):
    grid = Grid(extent=(16, 16, 16), layout=(2, 2, 2))
    prob = BurgersProblem(grid)
    ctl = SimulationController(
        grid, prob.tasks(), prob.init_tasks(),
        num_ranks=num_ranks, mode=mode, real=True,
        scheduler_kwargs={"scrub": scrub},
    )
    res = ctl.run(nsteps=nsteps, dt=prob.stable_dt())
    return grid, prob, ctl, res


def test_consumer_counts_compiled():
    grid = Grid(extent=(16, 16, 16), layout=(2, 2, 2))
    prob = BurgersProblem(grid)
    assignment = LoadBalancer("sfc").assign(grid, 1)
    graph = TaskGraph(grid, prob.tasks(), assignment, 1)
    counts = graph.old_dw_consumers(0)
    # on one rank: every patch's u is read by its own timeAdvance (1)
    # plus by each of its 3 interior-face neighbour copies
    assert set(counts) == {("u", pid) for pid in range(8)}
    assert all(v == 1 + 3 for v in counts.values())


def test_old_dws_fully_scrubbed_after_run():
    """With scrubbing on, intermediate warehouses end up empty: the
    intermediate steps' controllers drop all grid variables."""
    grid, prob, ctl, res = run(scrub=True)
    # the scheduler scrubbed every old-DW u exactly once per patch per step
    assert res.stats.scrubbed == 3 * 8  # 3 steps x 8 patches


def test_scrubbing_preserves_results():
    _, _, _, with_scrub = run(scrub=True)
    _, _, _, without = run(scrub=False)
    a = {
        v.patch.patch_id: v.interior.copy()
        for dw in with_scrub.final_dws
        for v in dw.grid_variables()
    }
    b = {
        v.patch.patch_id: v.interior.copy()
        for dw in without.final_dws
        for v in dw.grid_variables()
    }
    for pid in b:
        assert np.array_equal(a[pid], b[pid])
    assert without.stats.scrubbed == 0


def test_final_dw_never_scrubbed():
    """Only *old* warehouses are scrubbed; the final state survives."""
    grid, prob, ctl, res = run(scrub=True)
    total_vars = sum(
        sum(1 for _ in dw.grid_variables()) for dw in res.final_dws
    )
    assert total_vars == grid.num_patches


@pytest.mark.parametrize("mode", ["async", "sync", "mpe_only"])
def test_scrub_counts_all_modes(mode):
    _, _, _, res = run(scrub=True, mode=mode, nsteps=2)
    assert res.stats.scrubbed == 2 * 8


def test_scrub_delegates_to_scrub_named():
    """Both scrub entry points share one removal path; scrubbing twice is
    a runtime bug and raises with a precise diagnosis."""
    from repro.core.datawarehouse import DataWarehouse
    from repro.core.varlabel import VarLabel

    grid = Grid(extent=(8, 8, 8), layout=(1, 1, 1))
    patch = next(iter(grid.patches()))
    label = VarLabel("u")
    dw = DataWarehouse(step=0)
    dw.allocate_and_put(label, patch)

    assert dw.scrub(label, patch) is True  # removed
    assert not dw.exists(label, patch)
    with pytest.raises(KeyError, match="double-scrub"):
        dw.scrub(label, patch)
    with pytest.raises(KeyError, match="double-scrub"):
        dw.scrub_named("u", patch.patch_id)
    # a key that was never present is not a double-scrub: plain False
    assert dw.scrub_named("v", patch.patch_id) is False


def test_scrub_counts_multirank():
    """Cross-rank: remote faces are served by messages packed from the
    *producing* step's new DW, so per-step old-DW consumers are the
    self-read plus local copies only — every patch still scrubs."""
    _, _, _, res = run(num_ranks=4, scrub=True, nsteps=2)
    assert res.stats.scrubbed == 2 * 8
