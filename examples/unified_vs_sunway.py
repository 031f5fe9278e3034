#!/usr/bin/env python
"""Why Sunway needed a new scheduler (paper Sec. II, quantified).

Uintah's production "Unified Scheduler" uses one MPI process per node
with many worker threads, one per CPU core.  SW26010 gives a core-group
exactly one host core (the MPE) — the Unified Scheduler collapses to a
single thread and cannot touch the 64 CPEs.  This example measures that
story on the simulated machine:

1. Unified with 16 threads on a hypothetical 16-MPE-core host: thrives.
2. Unified with the 1 thread Sunway affords: no overlap, no CPEs.
3. The paper's asynchronous MPE+CPE scheduler: offload + overlap.

Usage::

    python examples/unified_vs_sunway.py
"""

import functools

from repro.burgers import BurgersProblem
from repro.core.controller import SimulationController
from repro.core.schedulers.unified import UnifiedHostScheduler
from repro.core.costs import SunwayCostModel
from repro.harness.problems import problem_by_name
from repro.harness.reportfmt import render_table, seconds


def run(label, scheduler_factory=None, mode="async", simd=False, cgs=8, nsteps=3):
    problem = problem_by_name("32x32x512")
    grid = problem.grid()
    burgers = BurgersProblem(grid)
    controller = SimulationController(
        grid,
        burgers.tasks(),
        burgers.init_tasks(),
        num_ranks=cgs,
        mode=mode,
        real=False,
        cost_model=SunwayCostModel(simd=simd),
        scheduler_factory=scheduler_factory,
    )
    res = controller.run(nsteps=nsteps, dt=1e-5)
    return label, res.time_per_step, res.gflops


def main() -> None:
    cases = [
        run(
            "Unified, 16 host threads (hypothetical machine)",
            functools.partial(UnifiedHostScheduler, num_threads=16),
        ),
        run(
            "Unified, 1 thread (what the MPE affords)",
            functools.partial(UnifiedHostScheduler, num_threads=1),
        ),
        run("Sunway sync MPE+CPE (acc.sync)", mode="sync"),
        run("Sunway async MPE+CPE (acc.async, the paper)", mode="async"),
        run("  + vectorized kernel (acc_simd.async)", mode="async", simd=True),
    ]
    base = cases[1][1]  # unified single-thread = the naive Sunway port
    rows = [
        (label, seconds(t), f"{g:.1f}", f"{base / t:.2f}x")
        for label, t, g in cases
    ]
    print(
        render_table(
            "Schedulers on 8 simulated CGs, problem 32x32x512 "
            "(speedup vs single-thread Unified)",
            ["Scheduler", "Time/step", "Gflop/s", "Speedup"],
            rows,
        )
    )
    print()
    print("The single-thread Unified row IS the challenge of paper Sec. II:")
    print("without the offload-based redesign, Sunway's one MPE per CG runs")
    print("the whole kernel itself and overlaps nothing.")


if __name__ == "__main__":
    main()
