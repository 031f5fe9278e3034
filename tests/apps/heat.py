"""The 3-D heat equation as a second application component.

Solves ``u_t = alpha * Laplacian(u)`` on the unit box with homogeneous
Dirichlet boundaries, using the same second-order central differences and
forward Euler as the model problem's diffusion term.  The manufactured
exact solution

.. math::

    u(x, y, z, t) = e^{-3 \\pi^2 \\alpha t}
                    \\sin(\\pi x) \\sin(\\pi y) \\sin(\\pi z)

satisfies both the PDE and the boundary conditions exactly, so this
component gets the same end-to-end numerical validation as the Burgers
problem — and proves the runtime carries applications it was not built
around.  ``test_heat.py`` is its only user; ``examples/heat_equation.py``
shows the same application written against the public API.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.grid import Grid
from repro.core.patch import Region
from repro.core.task import Task, TaskContext, TaskKind
from repro.core.varlabel import VarLabel
from repro.sunway.corerates import KernelCost

#: 7-point Laplacian + Euler update, no exponentials:
#: 3 axes x (2 add + 1 mul + 1 mul) + 2-add combine + nu mul + update 2.
HEAT_KERNEL_COST = KernelCost(stencil_flops=17, exp_calls=0, bytes_read=8, bytes_written=8)


def heat_exact(grid: Grid, region: Region, t: float, alpha: float) -> np.ndarray:
    """The manufactured solution on a region's cell centres."""
    def axis(a: int) -> np.ndarray:
        d = grid.spacing[a]
        x = grid.domain_low[a] + (
            np.arange(region.low[a], region.high[a], dtype=np.float64) + 0.5
        ) * d
        return np.sin(np.pi * x)

    amp = np.exp(-3.0 * np.pi**2 * alpha * t)
    out = amp * (
        axis(0)[:, None, None] * axis(1)[None, :, None] * axis(2)[None, None, :]
    )
    return np.asfortranarray(out)


@dataclasses.dataclass
class HeatProblem:
    """Heat-equation component: labels, tasks, stability, validation.

    API mirrors :class:`~repro.burgers.component.BurgersProblem` so the
    two components are interchangeable in the controller and harness.
    """

    grid: Grid
    alpha: float = 0.1
    with_reduction: bool = True

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        self.t_label = VarLabel("temperature")
        self.energy_label = VarLabel("thermalEnergy", vartype="reduction")

    # -- actions -----------------------------------------------------------
    def _initialize(self, ctx: TaskContext) -> None:
        var = ctx.new_dw.allocate_and_put(self.t_label, ctx.patch, ghosts=1)
        var.interior[...] = heat_exact(self.grid, ctx.patch.region, ctx.time, self.alpha)

    def _apply_bcs(self, ctx: TaskContext) -> None:
        """Dirichlet walls: ghost cells take the exact (zero-wall) field.

        Filling ghosts with the exact solution sampled at their centres
        keeps the discrete operator second-order at the boundary.
        """
        var = ctx.old_dw.get(self.t_label, ctx.patch)
        for axis, side in self.grid.boundary_faces(ctx.patch):
            region = ctx.patch.ghost_region(axis, side, width=1)
            var.set_region(region, heat_exact(self.grid, region, ctx.time, self.alpha))

    def _diffuse(self, ctx: TaskContext) -> None:
        old = ctx.old_dw.get(self.t_label, ctx.patch)
        new = ctx.new_dw.allocate_and_put(self.t_label, ctx.patch, ghosts=1)
        dx, dy, dz = self.grid.spacing
        u = old.data
        c = u[1:-1, 1:-1, 1:-1]
        lap = (
            (u[:-2, 1:-1, 1:-1] - 2.0 * c + u[2:, 1:-1, 1:-1]) / (dx * dx)
            + (u[1:-1, :-2, 1:-1] - 2.0 * c + u[1:-1, 2:, 1:-1]) / (dy * dy)
            + (u[1:-1, 1:-1, :-2] - 2.0 * c + u[1:-1, 1:-1, 2:]) / (dz * dz)
        )
        new.interior[...] = c + ctx.dt * self.alpha * lap

    def _energy(self, ctx: TaskContext) -> float:
        var = ctx.new_dw.get(self.t_label, ctx.patch)
        cell_volume = 1.0
        for d in self.grid.spacing:
            cell_volume *= d
        return float(var.interior.sum()) * cell_volume

    # -- task wiring ----------------------------------------------------------
    def init_tasks(self) -> list[Task]:
        """The initialization graph."""
        init = Task("heatInit", kind=TaskKind.MPE, action=self._initialize)
        init.computes_(self.t_label)
        return [init]

    def tasks(self) -> list[Task]:
        """The per-timestep graph: diffuse (+ optional energy reduction)."""
        diffuse = Task(
            "heatAdvance",
            kind=TaskKind.CPE_KERNEL,
            action=self._diffuse,
            mpe_action=self._apply_bcs,
            kernel_cost=HEAT_KERNEL_COST,
        )
        diffuse.requires_(self.t_label, dw="old", ghosts=1)
        diffuse.computes_(self.t_label)
        out: list[Task] = [diffuse]
        if self.with_reduction:
            energy = Task(
                "thermalEnergy",
                kind=TaskKind.REDUCTION,
                action=self._energy,
                reduction_op=lambda a, b: a + b,
            )
            energy.requires_(self.t_label, dw="new").computes_(self.energy_label)
            out.append(energy)
        return out

    # -- numerics -----------------------------------------------------------------
    def stable_dt(self, safety: float = 0.5) -> float:
        """Forward-Euler diffusion bound: ``dt <= safety / (2 a sum 1/dx^2)``."""
        return safety / (2.0 * self.alpha * sum(1.0 / (d * d) for d in self.grid.spacing))

    def solution_errors(self, final_dws, t: float) -> dict[str, float]:
        """Linf / L2 error of a finished run against the exact solution."""
        linf = 0.0
        sq = 0.0
        cells = 0
        for dw in final_dws:
            for var in dw.grid_variables():
                if var.label.name != self.t_label.name:
                    continue
                err = np.abs(
                    var.interior - heat_exact(self.grid, var.patch.region, t, self.alpha)
                )
                linf = max(linf, float(err.max()))
                sq += float((err**2).sum())
                cells += var.patch.num_cells
        if cells == 0:
            raise ValueError("no temperature patches in the final warehouses")
        return {"linf": linf, "l2": float(np.sqrt(sq / cells))}
