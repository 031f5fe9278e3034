#!/usr/bin/env python
"""Profile a run: per-activity MPE/CPE breakdown and a Chrome trace.

The scheduler's tracer answers "where did the time go?" — the question
behind every number in the paper's Sec. VII.  This example runs one
medium workload under the async scheduler, prints the per-activity
summary, and exports a Chrome-tracing JSON you can open in
chrome://tracing or https://ui.perfetto.dev.

Usage::

    python examples/performance_analysis.py [trace.json]
"""

import json
import sys

from repro.burgers import BurgersProblem
from repro.core.controller import SimulationController
from repro.core.grid import Grid
from repro.core.costs import SunwayCostModel
from repro.harness.reportfmt import render_table, seconds


def main() -> None:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "trace.json"
    grid = Grid(extent=(64, 64, 128), layout=(2, 2, 2))
    problem = BurgersProblem(grid)
    controller = SimulationController(
        grid,
        problem.tasks(),
        problem.init_tasks(),
        num_ranks=2,
        mode="async",
        real=True,
        trace_enabled=True,
        cost_model=SunwayCostModel(simd=True),
    )
    result = controller.run(nsteps=5, dt=problem.stable_dt())

    summary = result.trace.summarize(rank=0)
    rows = [
        (name, lane, info["count"], seconds(info["total"]), seconds(info["mean"]))
        for (name, lane), info in sorted(
            summary.items(), key=lambda kv: kv[1]["total"], reverse=True
        )
    ]
    print(
        render_table(
            "Rank 0 activity breakdown (5 steps, acc_simd.async)",
            ["Activity", "Lane", "Count", "Total", "Mean"],
            rows,
        )
    )
    mpe = result.trace.busy_time(0, "mpe")
    cpe = result.trace.busy_time(0, "cpe")
    overlap = result.trace.overlap_time(0, "mpe", "cpe")
    print()
    print(f"MPE busy {seconds(mpe)}, CPE busy {seconds(cpe)}, "
          f"overlapped {seconds(overlap)} "
          f"({overlap / mpe * 100:.0f}% of MPE work hidden under kernels)")

    events = result.trace.to_chrome_trace()
    with open(out_path, "w") as fh:
        json.dump(events, fh)
    print(f"chrome trace with {len(events)} events written to {out_path}")


if __name__ == "__main__":
    main()
