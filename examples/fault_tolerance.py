#!/usr/bin/env python
"""Survive injected hardware faults — including losing a whole core-group.

The fault injector (:mod:`repro.faults`) deals deterministic, seeded
faults to the simulated machine: kernels hang or die with DMA errors on
the CPE cluster, messages are dropped, duplicated or delayed on the
interconnect, and one rank is killed outright mid-run.  The resilience
machinery recovers all of it — watchdog + re-offload + MPE fallback for
kernels, retransmission with exponential backoff for messages, and
checkpoint/restart on the surviving layout for the dead rank — and the
final physics still matches a fault-free run to the last bit.

Usage::

    python examples/fault_tolerance.py [seed]
"""

import sys

from repro.burgers import BurgersProblem
from repro.core.controller import SimulationController
from repro.core.grid import Grid
from repro.faults import FaultConfig, ResiliencePolicy
from repro.faults.recovery import ResilientRunner
from repro.verify import fields_identical, fields_of


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    grid = Grid(extent=(16, 16, 16), layout=(2, 2, 1))
    problem = BurgersProblem(grid)
    dt = problem.stable_dt()
    nsteps, cgs = 12, 4

    # fault-free reference
    reference = SimulationController(
        grid, problem.tasks(), problem.init_tasks(), num_ranks=cgs, real=True
    ).run(nsteps=nsteps, dt=dt)

    # the same 12 steps under heavy weather: CPE faults, lossy network,
    # and rank 2 dies at the start of timestep 8
    config = FaultConfig(
        seed=seed,
        kernel_slowdown_prob=0.10,
        kernel_stuck_prob=0.05,
        dma_error_prob=0.05,
        msg_drop_prob=0.05,
        msg_dup_prob=0.03,
        msg_delay_prob=0.05,
        fail_rank=2,
        fail_at_step=8,
    )
    runner = ResilientRunner(
        BurgersProblem,
        grid,
        nsteps=nsteps,
        dt=dt,
        num_ranks=cgs,
        config=config,
        policy=ResiliencePolicy(checkpoint_every=5),
    )
    report = runner.run()
    report.fault_free_time = reference.total_time
    print(report.render())

    identical = fields_identical(fields_of(runner.last_result), fields_of(reference))
    print(
        f"recovered on {report.num_ranks_end} of {cgs} CGs; physics "
        f"{'bit-identical' if identical else 'MISMATCH'} vs fault-free run"
    )
    assert identical
    assert report.rank_failures == 1 and report.recoveries == 1


if __name__ == "__main__":
    main()
