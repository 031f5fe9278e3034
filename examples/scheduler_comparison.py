#!/usr/bin/env python
"""Compare the three scheduler modes of the paper on one workload.

Runs the same Burgers problem under ``mpe_only`` (host.sync),
``sync`` (acc.sync) and ``async`` (acc.async), prints the modelled wall
time per step, the async-over-sync improvement (paper Sec. VII-C), the
offload boost (Sec. VII-D), and Gantt-style timelines that make the
overlap visible: in async mode the MPE lane ('=') stays busy while CPE
kernels ('#') run; in sync mode it does not.

Usage::

    python examples/scheduler_comparison.py
"""

from repro.burgers import BurgersProblem
from repro.core.controller import SimulationController
from repro.core.grid import Grid
from repro.core.costs import SunwayCostModel


def run(mode: str, simd: bool = False):
    grid = Grid(extent=(64, 64, 128), layout=(2, 2, 2))
    problem = BurgersProblem(grid)
    controller = SimulationController(
        grid,
        problem.tasks(),
        problem.init_tasks(),
        num_ranks=2,
        mode=mode,
        cost_model=SunwayCostModel(simd=simd),
        real=True,
        trace_enabled=True,
    )
    return controller.run(nsteps=5, dt=problem.stable_dt())


def main() -> None:
    results = {mode: run(mode) for mode in ("mpe_only", "sync", "async")}

    print("Scheduler mode comparison (64x64x128 grid, 8 patches, 2 CGs)")
    print("=" * 62)
    for mode, res in results.items():
        overlap = res.trace.overlap_time(0, "mpe", "cpe")
        print(
            f"{mode:>9}: {res.time_per_step * 1e3:9.3f} ms/step   "
            f"MPE/CPE overlap on rank 0: {overlap * 1e3:7.3f} ms"
        )

    sync_t = results["sync"].time_per_step
    async_t = results["async"].time_per_step
    host_t = results["mpe_only"].time_per_step
    print()
    print(f"async improvement over sync ((Ts-Ta)/Ta): "
          f"{(sync_t - async_t) / async_t * 100:.1f}%   (paper: up to 39.3%)")
    print(f"offload boost over MPE-only (Th/Ta):      "
          f"{host_t / async_t:.2f}x  (paper: 2.7-6.0x)")
    print()
    for mode in ("sync", "async"):
        print(f"--- rank 0 timeline, {mode} mode "
              f"('=' MPE, '#' CPE kernel) ---")
        print(results[mode].trace.timeline(0))
        print()


if __name__ == "__main__":
    main()
