"""Ablation: the paper's Sec. IX future-work optimizations, implemented.

The paper lists three further optimizations it did *not* evaluate:

1. asynchronous (double-buffered) memory<->LDM DMA,
2. packing the tiles so DMA transfers are contiguous,
3. grouping CPEs to run multiple patches concurrently per CG.

All three exist behind flags in this reproduction; this bench measures
what each would have bought on the medium problem, against the paper's
measured configuration (acc_simd.async).
"""

import pytest

from benchmarks.conftest import run_once
from repro.burgers.component import BurgersProblem
from repro.core.controller import SimulationController
from repro.core.costs import SunwayCostModel
from repro.harness.problems import problem_by_name
from repro.harness.reportfmt import render_table, seconds


def run_case(simd=True, async_dma=False, pack_tiles=False, cpe_groups=1, cgs=8):
    problem = problem_by_name("32x64x512")
    grid = problem.grid()
    burgers = BurgersProblem(grid, with_reduction=True)
    cm = SunwayCostModel(
        simd=simd, async_dma=async_dma, cpe_groups=cpe_groups, pack_tiles=pack_tiles
    )
    ctl = SimulationController(
        grid,
        burgers.tasks(),
        burgers.init_tasks(),
        num_ranks=cgs,
        mode="async",
        cost_model=cm,
        real=False,
    )
    return ctl.run(nsteps=5, dt=burgers.stable_dt()).time_per_step


def sweep():
    base = run_case()
    return {
        "baseline (paper config)": base,
        "+async DMA": run_case(async_dma=True),
        "+tile packing": run_case(pack_tiles=True),
        "+async DMA +packing": run_case(async_dma=True, pack_tiles=True),
        "4 CPE groups": run_case(cpe_groups=4),
    }


@pytest.mark.benchmark(group="ablation")
def test_ablation_future_work(benchmark, publish):
    results = run_once(benchmark, sweep)
    base = results["baseline (paper config)"]
    rows = [
        (name, seconds(t), f"{base / t:.3f}x")
        for name, t in results.items()
    ]
    publish(
        "ablation_futurework",
        render_table(
            "Ablation: Sec. IX future-work optimizations (32x64x512, 8 CGs, "
            "acc_simd.async)",
            ["Configuration", "Time/step", "Speedup vs baseline"],
            rows,
        ),
    )

    # async DMA hides part of every tile's transfer: strictly helps
    assert results["+async DMA"] < base
    # packing removes per-descriptor costs: helps (modestly)
    assert results["+tile packing"] <= base
    # combined at least as good as either alone
    assert results["+async DMA +packing"] <= results["+async DMA"] + 1e-12
    # 4 groups of 16 CPEs: kernels take longer each, but four patches run
    # concurrently; must stay within 2x either way of the baseline
    assert 0.5 * base < results["4 CPE groups"] < 2.0 * base
