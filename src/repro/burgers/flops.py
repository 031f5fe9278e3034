"""The analytic flop model of the Burgers kernel (paper Table I).

The paper counts ~311 flops per cell with precise hardware counters, 215
of which come from the six exponentials.  We derive the same budget from
the kernel structure, at the hoisting level a reasonable implementation
uses (per-timestep constants like ``dt`` products precomputed; per-cell
coordinate and exponent arithmetic counted).  A divide counts as one
op, the SW26010 counters' convention (Sec. VII-E), and an exponential
as the flops of the library that evaluates it
(:func:`repro.sunway.fastmath.exp_flops`):

Per phi call (stable form, Sec. III):

====================================  ====
coordinate ``x = i*dx``                  1
exponents a, b, c (3 x (mul+add+add))    9
max of three (2 compares)                2
subtract max from a, b, c                3
numerator  (2 mul + 2 add)               4
denominator (2 add)                      2
final divide                             1
**non-exp ops per phi**               **22**
exponentials per phi (largest is 1)    2
====================================  ====

Per cell (Algorithm 1): 3 phi calls = 66 non-exp ops + 6 exps; advection
terms 3 x (sub + mul + mul) = 9; diffusion terms 3 x (mul + 2 add + mul)
= 12; assembling ``du`` = 6; Euler update = 2 -> **stencil total 95**.

With the fast library's 36 flops per exponential: 95 + 6*36 = **311**
flops per interior cell — the paper's asymptotic Table I value, with
exponentials contributing 216 ~ the paper's 215.

Table I's "FLOPs per Cell" column divides by the grid size *including one
global ghost layer* — verifiable from the paper's own "Total Cells"
column: 130*130*1026 = 17,339,400 for the 128x128x1024 grid.  That
denominator is why the reported value rises from 299 to 311 with problem
size while the per-interior-cell cost stays constant.
"""

from __future__ import annotations

from repro.core.grid import Grid
from repro.sunway.corerates import KernelCost

#: Non-exponential ops per phi call (see table above).
PHI_NONEXP_FLOPS = 22
#: Exponentials per phi call (stable evaluation).
PHI_EXPS = 2
#: Phi calls per cell (one per axis).
PHI_CALLS_PER_CELL = 3
#: Non-phi stencil ops per cell (advection 9 + diffusion 12 + du 6 + update 2).
STENCIL_ONLY_FLOPS = 29
#: All non-exponential ops per cell.
NONEXP_FLOPS_PER_CELL = PHI_CALLS_PER_CELL * PHI_NONEXP_FLOPS + STENCIL_ONLY_FLOPS
#: Exponentials per cell.
EXPS_PER_CELL = PHI_CALLS_PER_CELL * PHI_EXPS
#: Bytes of compulsory memory traffic per cell (read u, write u_new).
BYTES_PER_CELL = 16

#: The kernel cost description used by the scheduler's performance model.
BURGERS_KERNEL_COST = KernelCost(stencil_flops=NONEXP_FLOPS_PER_CELL, exp_calls=EXPS_PER_CELL)


def grid_ghosted_cells(grid: Grid) -> int:
    """Table I's "Total Cells": the grid plus one global ghost layer."""
    nx, ny, nz = grid.extent
    return (nx + 2) * (ny + 2) * (nz + 2)


def table1_row(grid: Grid, fast_exp: bool = True) -> dict:
    """One row of Table I for a grid: total flops and flops per cell.

    The totals come from :data:`BURGERS_KERNEL_COST`, the same per-cell
    cost the scheduler charges each kernel.  Every operand is an integer,
    so each ratio is the correctly rounded quotient.
    """
    per_cell = BURGERS_KERNEL_COST.flops_per_cell(fast_exp)
    total_flops = grid.num_cells * per_cell
    total_cells = grid_ghosted_cells(grid)
    return {
        "total_cells": total_cells,
        "total_flops": total_flops,
        "flops_per_cell": total_flops / total_cells,
        "exp_share": (per_cell - BURGERS_KERNEL_COST.stencil_flops) / per_cell,
    }
