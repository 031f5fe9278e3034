"""The analytic flop model of the Burgers kernel (paper Table I).

The paper counts ~311 flops per cell with precise hardware counters, 215
of which come from the six exponentials.  We derive the same budget from
the kernel structure, at the hoisting level a reasonable implementation
uses (per-timestep constants like ``dt`` products precomputed; per-cell
coordinate and exponent arithmetic counted):

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
from repro.sunway.perfcounters import FlopCounter

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


def count_kernel_flops(counter: FlopCounter, cells: int) -> None:
    """Register one kernel execution over ``cells`` cells on a counter."""
    # Exact per-category breakdown of the 95 non-exp ops:
    #   muls: coordinate(3) + exponent muls(9) + numerator muls(6) +
    #         advection muls(6) + diffusion muls(6) + du mul(1) + update mul(1) = 32
    #   adds/subs: exponent adds(18) + subtract-max(9) + numerator adds(6) +
    #         denominator adds(6) + advection subs(3) + diffusion adds(6) +
    #         du adds(5) + update add(1) = 54
    #   compares: max-of-three = 6
    #   divs: final phi divides = 3
    counter.count(muls=32, adds=54, compares=6, divs=3, exps=EXPS_PER_CELL, times=cells)


def grid_ghosted_cells(grid: Grid) -> int:
    """Table I's "Total Cells": the grid plus one global ghost layer."""
    nx, ny, nz = grid.extent
    return (nx + 2) * (ny + 2) * (nz + 2)


def table1_row(grid: Grid, fast_exp: bool = True) -> dict:
    """One row of Table I for a grid: counted totals and flops per cell."""
    counter = FlopCounter(fast_exp=fast_exp)
    count_kernel_flops(counter, grid.num_cells)
    total_cells = grid_ghosted_cells(grid)
    return {
        "total_cells": total_cells,
        "total_flops": counter.total,
        "flops_per_cell": counter.total / total_cells,
        "exp_share": counter.report().exp_share,
    }
