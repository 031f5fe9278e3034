"""The Burgers simulation component: wiring the model problem into the runtime.

Uintah keeps applications and infrastructure decoupled: an application
declares labels and coarse tasks; the runtime does the rest.  This module
is the application side for the model problem, producing

* an ``initialize`` task (exact solution at t=0, paper Sec. III),
* the ``timeAdvance`` CPE-kernel task whose MPE part applies the exact-
  solution boundary conditions to the old DW's physical-boundary ghost
  cells,
* an optional ``uNorm`` reduction task (max |u|), giving the scheduler
  the "MPI reduce tasks" of paper step 3(d) to overlap.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.burgers import kernel as _kernel
from repro.burgers import kernel_simd as _kernel_simd
from repro.burgers.exact import exact_on_region
from repro.burgers.flops import BURGERS_KERNEL_COST
from repro.burgers.phi import NU
from repro.core.grid import Grid
from repro.core.task import Task, TaskContext, TaskKind
from repro.core.variables import CCVariable
from repro.core.varlabel import VarLabel
from repro.sunway.fastmath import exp_function

#: Kernel implementations selectable for real-numerics runs.
KERNEL_IMPLS = ("numpy", "cell_loop", "simd")


#: Largest ``uNorm`` a healthy run can reach.  phi is a convex combination
#: of 0.1, 0.5 and 1, so the exact solution has ``|u| <= 1``, and a step
#: within ``stable_dt(safety=1.0)`` mixes its neighbours convexly; twice
#: that bound is past any rounding, so only a blow-up crosses it.
NORM_BOUND = 2.0


class NumericalInstability(ArithmeticError):
    """The ``uNorm`` reduction of a timestep is non-finite or above
    :data:`NORM_BOUND`: the solution blew up, and the run stops there
    instead of carrying NaNs or garbage forward."""

    def __init__(self, step: int, value: float):
        super().__init__(
            f"uNorm {value!r} at step {step} is non-finite or above the "
            f"bound {NORM_BOUND} of this problem (|u| <= 1 for the exact solution)"
        )
        self.step = step
        self.value = value


def max_keep_nan(a: float, b: float) -> float:
    """The ``uNorm`` fold: ``max`` that propagates NaN from either side.

    Builtin ``max(0.5, nan)`` is 0.5, so a NaN patch would hide behind a
    finite norm unless it came first.  On non-NaN inputs this returns
    exactly what ``max(a, b)`` returns, ``a`` when the two are equal.
    """
    return b if b != b or b > a else a


@dataclasses.dataclass
class BurgersProblem:
    """The model fluid-flow problem on a grid.

    Parameters
    ----------
    grid:
        Mesh and patch layout.
    nu:
        Viscosity (paper: 0.01).
    fast_exp:
        Use the fast non-IEEE exponential library (paper Sec. VI-C).
    kernel_impl:
        Which real-numerics kernel to run: ``"numpy"`` (production),
        ``"cell_loop"`` (literal Algorithm 1) or ``"simd"`` (tiled
        Algorithm 2).  All produce identical results.
    with_reduction:
        Include the ``uNorm`` reduction task each timestep.
    """

    grid: Grid
    nu: float = NU
    fast_exp: bool = False
    kernel_impl: str = "numpy"
    with_reduction: bool = True

    def __post_init__(self) -> None:
        if self.kernel_impl not in KERNEL_IMPLS:
            raise ValueError(f"kernel_impl must be one of {KERNEL_IMPLS}")
        self.u_label = VarLabel("u")
        self.norm_label = VarLabel("uNorm", vartype="reduction")
        self._exp = exp_function(self.fast_exp)
        #: Largest ``dt`` forward Euler is stable at on this grid.
        self.max_dt = self.stable_dt(safety=1.0)
        #: Boundary ghost faces per (patch, ghost width): see _boundary_slabs.
        self._bc_slabs: dict[tuple[int, int], tuple] = {}

    # ------------------------------------------------------------- actions
    def _initialize(self, ctx: TaskContext) -> None:
        var = ctx.new_dw.allocate_and_put(self.u_label, ctx.patch, ghosts=1)
        exact_on_region(
            self.grid, ctx.patch.region, t=ctx.time, nu=self.nu, exp=self._exp, out=var.interior
        )

    def _boundary_slabs(self, var: CCVariable) -> tuple:
        """``(region, slices)`` of each physical-boundary ghost face of
        ``var``'s patch, compiled once per patch and ghost width."""
        key = (var.patch.patch_id, var.ghosts)
        faces = self._bc_slabs.get(key)
        if faces is None:
            regions = self.grid.boundary_ghost_regions(var.patch)
            faces = self._bc_slabs[key] = tuple((r, var.local_slices(r)) for r in regions)
        return faces

    def _apply_bcs(self, ctx: TaskContext) -> None:
        """MPE part of timeAdvance: exact-solution BCs on physical faces,
        written straight into the *old* DW's ghost cells at the current
        time."""
        var = ctx.old_dw.get(self.u_label, ctx.patch)
        for region, slices in self._boundary_slabs(var):
            exact_on_region(
                self.grid, region, t=ctx.time, nu=self.nu, exp=self._exp, out=var.data[slices]
            )

    def _advance(self, ctx: TaskContext) -> None:
        if ctx.dt > self.max_dt:
            raise ValueError(
                f"dt={ctx.dt!r} exceeds the forward-Euler stability bound "
                f"stable_dt(safety=1.0)={self.max_dt!r} of this grid"
            )
        u_old = ctx.old_dw.get(self.u_label, ctx.patch)
        u_new = ctx.new_dw.allocate_and_put(self.u_label, ctx.patch, ghosts=1)
        if self.kernel_impl == "numpy":
            _kernel.apply_kernel(
                u_old, u_new, self.grid, ctx.time, ctx.dt, self.nu, self._exp
            )
        elif self.kernel_impl == "cell_loop":
            _kernel.apply_kernel_cell_loop(
                u_old, u_new, self.grid, ctx.time, ctx.dt, self.nu, self._exp
            )
        else:
            _kernel_simd.apply_kernel_simd(
                u_old, u_new, self.grid, ctx.time, ctx.dt, self.nu, self._exp
            )

    def _norm(self, ctx: TaskContext) -> float:
        """A patch's share of ``uNorm``.  The reduction is the max of these
        shares, so it is non-finite or above :data:`NORM_BOUND` exactly
        when one of them is: the check raises at the first such patch."""
        var = ctx.new_dw.get(self.u_label, ctx.patch)
        value = float(np.abs(var.interior).max())
        if not value <= NORM_BOUND:
            raise NumericalInstability(ctx.step, value)
        return value

    # ------------------------------------------------------------- task wiring
    def init_tasks(self) -> list[Task]:
        """The initialization graph (no ghost requirements)."""
        init = Task(
            "initialize",
            kind=TaskKind.MPE,
            action=self._initialize,
        )
        init.computes_(self.u_label)
        return [init]

    def tasks(self) -> list[Task]:
        """The per-timestep graph."""
        advance = Task(
            "timeAdvance",
            kind=TaskKind.CPE_KERNEL,
            action=self._advance,
            mpe_action=self._apply_bcs,
            kernel_cost=BURGERS_KERNEL_COST,
            tile_fields_in=1,
            tile_fields_out=1,
        )
        advance.requires_(self.u_label, dw="old", ghosts=1)
        advance.computes_(self.u_label)
        out = [advance]
        if self.with_reduction:
            norm = Task(
                "uNorm",
                kind=TaskKind.REDUCTION,
                action=self._norm,
                reduction_op=max_keep_nan,
            )
            norm.requires_(self.u_label, dw="new", ghosts=0)
            norm.computes_(self.norm_label)
            out.append(norm)
        return out

    # ------------------------------------------------------------- numerics
    def stable_dt(self, safety: float = 0.5) -> float:
        """Forward-Euler stability bound: diffusion + advection CFL.

        phi is a convex combination of 0.1, 0.5 and 1.0, so it is bounded
        by 1 and ``dt <= safety / (2 nu sum(1/dx_a^2) + sum(1/dx_a))``.
        """
        dx = self.grid.spacing
        diffusion = 2.0 * self.nu * sum(1.0 / (d * d) for d in dx)
        advection = sum(1.0 / d for d in dx)
        return safety / (diffusion + advection)
