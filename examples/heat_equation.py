#!/usr/bin/env python
"""A user-defined application: 3-D heat equation on the public API.

Demonstrates what the paper's Sec. II promises — "users [describe] their
problems as a collection of dependent coarse tasks ... Uintah keeps users
insulated from all of [the] parallel executing details".  This script
defines a brand-new PDE application (not shipped with the library): the
heat equation ``u_t = alpha * Laplacian(u)`` with homogeneous Dirichlet
boundaries, plus an energy-monitoring reduction — in under a hundred
lines, with the runtime handling patches, ghost exchange, offload and
scheduling.

Usage::

    python examples/heat_equation.py
"""

import numpy as np

from repro.core.controller import SimulationController
from repro.core.grid import Grid
from repro.core.task import Task, TaskContext, TaskKind
from repro.core.varlabel import VarLabel
from repro.sunway.corerates import KernelCost

ALPHA = 0.1

T_LABEL = VarLabel("temperature")
ENERGY = VarLabel("energy", vartype="reduction")

#: 7-point Laplacian + Euler update: ~14 flops/cell, no exponentials.
HEAT_COST = KernelCost(stencil_flops=14, exp_calls=0)


def initialize(ctx: TaskContext) -> None:
    """A hot Gaussian blob in the centre of the box."""
    var = ctx.new_dw.allocate_and_put(T_LABEL, ctx.patch, ghosts=1)
    grid = ctx.grid
    lo, hi = ctx.patch.low, ctx.patch.high
    x = (np.arange(lo[0], hi[0]) + 0.5) * grid.spacing[0]
    y = (np.arange(lo[1], hi[1]) + 0.5) * grid.spacing[1]
    z = (np.arange(lo[2], hi[2]) + 0.5) * grid.spacing[2]
    r2 = (
        (x[:, None, None] - 0.5) ** 2
        + (y[None, :, None] - 0.5) ** 2
        + (z[None, None, :] - 0.5) ** 2
    )
    var.interior[...] = np.exp(-r2 / 0.02)


def apply_dirichlet(ctx: TaskContext) -> None:
    """MPE part: zero-temperature walls (ghosts mirror with negation would
    be second order; the simple Dirichlet fill keeps the example short)."""
    var = ctx.old_dw.get(T_LABEL, ctx.patch)
    for axis, side in ctx.grid.boundary_faces(ctx.patch):
        var.region_view(ctx.patch.ghost_region(axis, side))[...] = 0.0


def diffuse(ctx: TaskContext) -> None:
    """CPE kernel part: one forward-Euler diffusion step."""
    old = ctx.old_dw.get(T_LABEL, ctx.patch)
    new = ctx.new_dw.allocate_and_put(T_LABEL, ctx.patch, ghosts=1)
    dx, dy, dz = ctx.grid.spacing
    u = old.data
    c = u[1:-1, 1:-1, 1:-1]
    lap = (
        (u[:-2, 1:-1, 1:-1] - 2 * c + u[2:, 1:-1, 1:-1]) / dx**2
        + (u[1:-1, :-2, 1:-1] - 2 * c + u[1:-1, 2:, 1:-1]) / dy**2
        + (u[1:-1, 1:-1, :-2] - 2 * c + u[1:-1, 1:-1, 2:]) / dz**2
    )
    new.interior[...] = c + ctx.dt * ALPHA * lap


def total_energy(ctx: TaskContext) -> float:
    """Reduction partial: sum of temperature over the patch."""
    var = ctx.new_dw.get(T_LABEL, ctx.patch)
    return float(var.interior.sum())


def main() -> None:
    grid = Grid(extent=(32, 32, 32), layout=(2, 2, 2))

    init = Task("initialize", kind=TaskKind.MPE, action=initialize)
    init.computes_(T_LABEL)

    step = Task(
        "diffuse",
        kind=TaskKind.CPE_KERNEL,
        action=diffuse,
        mpe_action=apply_dirichlet,
        kernel_cost=HEAT_COST,
    )
    step.requires_(T_LABEL, dw="old", ghosts=1).computes_(T_LABEL)

    energy = Task("energy", kind=TaskKind.REDUCTION, action=total_energy,
                  reduction_op=lambda a, b: a + b)
    energy.requires_(T_LABEL, dw="new").computes_(ENERGY)

    controller = SimulationController(
        grid, [step, energy], [init], num_ranks=4, mode="async", real=True
    )
    dx = grid.spacing[0]
    dt = 0.2 * dx * dx / (6 * ALPHA)
    result = controller.run(nsteps=25, dt=dt)

    final = result.final_dws[0].get_reduction(ENERGY)
    peak = max(
        float(v.interior.max())
        for dw in result.final_dws
        for v in dw.grid_variables()
    )
    print("Heat equation on the AMT runtime (user-defined application)")
    print("=" * 60)
    print(f"steps                : 25 x dt={dt:.2e}")
    print(f"simulated time/step  : {result.time_per_step * 1e3:.3f} ms")
    print(f"total energy (sum T) : {final:.4f}")
    print(f"peak temperature     : {peak:.4f}  (started at 1.0, diffusing)")
    assert peak < 1.0, "diffusion must lower the peak"
    print("OK: heat spread and the walls stayed cold.")


if __name__ == "__main__":
    main()
