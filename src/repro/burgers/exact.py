"""The 3-D exact solution, initial/boundary conditions, and error norms.

``u(x, y, z, t) = phi(x,t) phi(y,t) phi(z,t)`` (paper Sec. III).  The
product structure lets us evaluate whole regions with three 1-D phi
vectors, sliced from the per-step tables of
:func:`~repro.burgers.phi.phi_cells`, and an outer product — what
initialization and boundary conditions use.
"""

from __future__ import annotations

import numpy as np

from repro.burgers.phi import phi, phi_cells, NU
from repro.core.grid import Grid
from repro.core.patch import Region
from repro.sunway.fastmath import ieee_exp


def exact_solution(x, y, z, t: float = 0.0, nu: float = NU, exp=ieee_exp):
    """Pointwise exact solution at coordinates (broadcastable arrays)."""
    return phi(x, t, nu, exp) * phi(y, t, nu, exp) * phi(z, t, nu, exp)


def exact_on_region(
    grid: Grid,
    region: Region,
    t: float = 0.0,
    nu: float = NU,
    exp=ieee_exp,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Exact solution sampled on every cell centre of ``region``.

    Returns an array of shape ``region.extent`` (x, y, z axes), built as
    an outer product of the three 1-D phi factors.  Regions may extend
    outside the physical domain (ghost cells): phi is globally defined,
    which is exactly how the boundary conditions are imposed.  ``out``,
    if given, receives the values in place (a view of a variable's
    ghost layer, say) and is returned.
    """
    fx, fy, fz = (
        phi_cells(grid, axis, region.low[axis], region.high[axis], t, nu, exp)
        for axis in range(3)
    )
    if out is None:
        out = np.empty(region.extent, order="F")
    elif out.shape != region.extent:
        raise ValueError(f"out shape {out.shape} != region shape {region.extent}")
    np.multiply((fx[:, None] * fy)[:, :, None], fz, out=out)
    return out


def solution_errors(
    grid: Grid,
    final_dws,
    label,
    t: float,
    nu: float = NU,
) -> dict[str, float]:
    """Global error norms of a finished run against the exact solution.

    ``final_dws`` are the per-rank final data warehouses from a
    :class:`~repro.core.controller.RunResult`; every patch is compared on
    its interior.  Returns ``{"linf": ..., "l2": ...}`` where l2 is the
    cell-volume-weighted RMS error.
    """
    linf = 0.0
    sq_sum = 0.0
    cells = 0
    for dw in final_dws:
        for var in dw.grid_variables():
            if var.label.name != label.name:
                continue
            expect = exact_on_region(grid, var.patch.region, t, nu)
            err = np.abs(var.interior - expect)
            linf = max(linf, float(err.max()))
            sq_sum += float((err**2).sum())
            cells += var.patch.num_cells
    if cells == 0:
        raise ValueError(f"no patches carrying {label.name!r} found in the final DWs")
    return {"linf": linf, "l2": float(np.sqrt(sq_sum / cells))}
