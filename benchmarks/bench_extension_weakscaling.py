"""Extension study: weak scaling (not in the paper).

The paper evaluates strong scaling only (fixed 128-patch grids).  This
extension holds the per-CG workload constant — 4 patches of 32x32x512
per core-group — and grows the grid with the machine, the complementary
question a user sizing a production run asks.  Expected shape on the
model: near-flat time per step (efficiency stays high), since per-rank
compute, MPE ghost work and neighbour counts are all constant; only the
allreduce's log(P) term and pipeline skew grow.
"""

import pytest

from benchmarks.conftest import run_once
from repro.burgers.component import BurgersProblem
from repro.core.controller import SimulationController
from repro.core.grid import Grid
from repro.core.costs import SunwayCostModel
from repro.harness.reportfmt import pct, render_table, seconds

#: Patches per rank (2x2x1 blob of 32x32x512 patches).
PATCH = (32, 32, 512)


def run_weak(num_cgs: int, nsteps: int = 5) -> float:
    # grid grows with the machine: layout 2*sx x 2*sy x 1 blobs
    sx = 1
    sy = num_cgs
    # factor num_cgs into a near-square xy rank grid
    for f in range(int(num_cgs**0.5), 0, -1):
        if num_cgs % f == 0:
            sx, sy = f, num_cgs // f
            break
    layout = (2 * sx, 2 * sy, 1)
    extent = tuple(p * l for p, l in zip(PATCH, layout))
    grid = Grid(extent=extent, layout=layout)
    burgers = BurgersProblem(grid)
    controller = SimulationController(
        grid,
        burgers.tasks(),
        burgers.init_tasks(),
        num_ranks=num_cgs,
        mode="async",
        real=False,
        cost_model=SunwayCostModel(simd=True),
    )
    return controller.run(nsteps=nsteps, dt=1e-5).time_per_step


def sweep():
    return {cgs: run_weak(cgs) for cgs in (1, 2, 4, 8, 16, 32, 64)}


@pytest.mark.benchmark(group="weak-scaling")
def test_extension_weak_scaling(benchmark, publish):
    data = run_once(benchmark, sweep)
    base = data[1]
    rows = [
        (cgs, seconds(t), pct(base / t))
        for cgs, t in data.items()
    ]
    publish(
        "extension_weakscaling",
        render_table(
            "Extension: weak scaling, 4x 32x32x512 patches per CG, "
            "acc_simd.async",
            ["CGs", "Time/step", "Weak efficiency"],
            rows,
        ),
    )

    # weak efficiency stays high out to 64 CGs
    for cgs, t in data.items():
        assert base / t > 0.60, (cgs, base / t)
    # and decays (or stays flat) monotonically-ish: 64 CGs is the worst
    assert data[64] == max(data.values())
