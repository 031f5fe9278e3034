#!/usr/bin/env python
"""Checkpoint a run to a UDA-style archive and restart it bit-exactly.

Uintah persists state in UDA archives and restarts from any archived
timestep; this example does the same on the reproduction — including a
restart onto a *different* number of core-groups, which redistributes
the patches without changing the physics.

Usage::

    python examples/checkpoint_restart.py [archive-dir]
"""

import sys
import tempfile

from repro.burgers import BurgersProblem
from repro.core.controller import SimulationController
from repro.core.grid import Grid
from repro.io.uda import load_checkpoint, restart_tasks, save_checkpoint
from repro.verify import fields_identical, fields_of


def main() -> None:
    root = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(suffix=".uda")
    grid = Grid(extent=(24, 24, 24), layout=(2, 2, 2))
    problem = BurgersProblem(grid)
    dt = problem.stable_dt()

    # phase 1: 5 steps on 2 CGs, then checkpoint
    first = SimulationController(
        grid, problem.tasks(), problem.init_tasks(), num_ranks=2, real=True
    ).run(nsteps=5, dt=dt)
    step_dir = save_checkpoint(root, grid, first.final_dws, step=5, time=first.sim_time)
    print(f"checkpointed step 5 to {step_dir}")

    # phase 2: restart from the archive on 4 CGs, 5 more steps
    ck = load_checkpoint(root)
    problem2 = BurgersProblem(ck.grid)
    resumed = SimulationController(
        ck.grid, problem2.tasks(), restart_tasks(ck, problem2.u_label),
        num_ranks=4, real=True,
    ).run(nsteps=5, dt=dt, start_step=ck.step)

    # reference: 10 uninterrupted steps
    straight = SimulationController(
        grid, problem.tasks(), problem.init_tasks(), num_ranks=2, real=True
    ).run(nsteps=10, dt=dt)

    identical = fields_identical(fields_of(resumed), fields_of(straight))
    print(f"restart (2 CGs -> 4 CGs) vs uninterrupted run: "
          f"{'bit-identical' if identical else 'MISMATCH'}")
    assert identical
    print(f"archive: {root}")


if __name__ == "__main__":
    main()
