"""Ablation: the exponential-library choice (paper Sec. VI-C).

"As the IEEE conforming library proved to be slow in tests, the fast
library was used.  While this introduces some inaccuracy it does not
greatly impact this benchmark."  Both halves are measurable here: the
performance gap from the cost model, and the accuracy impact from real
numerics.
"""

import numpy as np
import pytest

from benchmarks.conftest import run_once
from repro.burgers.component import BurgersProblem
from repro.core.controller import SimulationController
from repro.core.grid import Grid
from repro.core.costs import SunwayCostModel
from repro.harness.problems import problem_by_name
from repro.harness.reportfmt import render_table, seconds


def perf_case(fast_exp: bool) -> float:
    problem = problem_by_name("32x32x512")
    grid = problem.grid()
    burgers = BurgersProblem(grid)
    ctl = SimulationController(
        grid, burgers.tasks(), burgers.init_tasks(),
        num_ranks=8, mode="async", real=False,
        cost_model=SunwayCostModel(simd=True, fast_exp=fast_exp),
    )
    return ctl.run(nsteps=3, dt=1e-5).time_per_step


def accuracy_case() -> float:
    """Max relative solution difference, fast vs IEEE exp, real numerics."""
    outs = {}
    for fast in (False, True):
        grid = Grid(extent=(16, 16, 16), layout=(2, 2, 2))
        burgers = BurgersProblem(grid, fast_exp=fast, with_reduction=False)
        ctl = SimulationController(
            grid, burgers.tasks(), burgers.init_tasks(), num_ranks=2, real=True
        )
        res = ctl.run(nsteps=5, dt=burgers.stable_dt())
        outs[fast] = np.concatenate(
            [v.interior.ravel() for dw in res.final_dws for v in dw.grid_variables()]
        )
    denom = np.maximum(np.abs(outs[False]), 1e-300)
    return float((np.abs(outs[True] - outs[False]) / denom).max())


def sweep():
    return {
        "fast_time": perf_case(fast_exp=True),
        "ieee_time": perf_case(fast_exp=False),
        "max_rel_diff": accuracy_case(),
    }


@pytest.mark.benchmark(group="ablation-exp")
def test_ablation_exponential_library(benchmark, publish):
    r = run_once(benchmark, sweep)
    slowdown = r["ieee_time"] / r["fast_time"]
    publish(
        "ablation_exp",
        render_table(
            "Ablation: exponential library (Sec. VI-C), 32x32x512, 8 CGs, simd.async",
            ["Quantity", "Value"],
            [
                ("fast library time/step", seconds(r["fast_time"])),
                ("IEEE library time/step", seconds(r["ieee_time"])),
                ("IEEE slowdown", f"{slowdown:.2f}x"),
                ("max relative solution difference", f"{r['max_rel_diff']:.2e}"),
            ],
        ),
    )
    # "proved to be slow": the exponential-heavy kernel suffers visibly
    assert slowdown > 1.3
    # "does not greatly impact": far below discretization error (~1e-2)
    assert r["max_rel_diff"] < 1e-3
