"""The tiled, manually vectorized Burgers kernel (paper Algorithm 2).

This is the CPE-style implementation: the patch is cut into LDM-sized
tiles (Sec. VI-A), each tile's ghosted working set is staged through a
real capacity-checked :class:`~repro.sunway.ldm.LDM` allocation
(``athread_get``), the x-direction inner loop is unrolled by the SIMD
width of 4 using the intrinsics emulation of :mod:`repro.sunway.simd`
(``SIMD_LOADU`` / ``SIMD_VMAD`` / ...), and results are written back
(``athread_put``).

Numerics are arranged to match :func:`repro.burgers.kernel.apply_kernel`
bitwise: identical operation order, identical coefficient evaluation —
on SW26010 too, the vector lanes are ordinary IEEE doubles and
vectorization changes speed, not results.  Tests assert the equality.

This kernel is exercised by tests and examples; large real-numerics runs
use the NumPy kernel, and pure performance runs use the cost model — all
three describe the same computation.
"""

from __future__ import annotations

import numpy as np

from repro.burgers.phi import phi_cells, NU
from repro.core.grid import Grid
from repro.core.tiling import TilePlan
from repro.core.variables import CCVariable
from repro.sunway.fastmath import ieee_exp
from repro.sunway.ldm import DEFAULT_LDM_BYTES, LDM
from repro.sunway import simd


def _phi_scalar(grid: Grid, axis: int, global_index: int, t: float, nu: float, exp) -> float:
    return float(phi_cells(grid, axis, global_index, global_index + 1, t, nu, exp)[0])


def _kernel_row_simd(
    row_c, row_xm, row_xp, row_ym, row_yp, row_zm, row_zp, row_out,
    px_row, pyj, pzk, dx, dy, dz, nu, dt,
):
    """One x-row of a tile: 4-wide vector main loop + scalar remainder."""
    n = row_c.shape[0]
    dx_b = simd.simd_loade(dx)
    dy_b = simd.simd_loade(dy)
    dz_b = simd.simd_loade(dz)
    dx2_b = simd.simd_loade(dx * dx)
    dy2_b = simd.simd_loade(dy * dy)
    dz2_b = simd.simd_loade(dz * dz)
    nu_b = simd.simd_loade(nu)
    dt_b = simd.simd_loade(dt)
    m2 = simd.simd_set(-2.0, -2.0, -2.0, -2.0)

    i = 0
    while i + simd.VECTOR_WIDTH <= n:
        c = simd.simd_loadu(row_c, i)
        xm = simd.simd_loadu(row_xm, i)
        xp = simd.simd_loadu(row_xp, i)
        ym = simd.simd_loadu(row_ym, i)
        yp = simd.simd_loadu(row_yp, i)
        zm = simd.simd_loadu(row_zm, i)
        zp = simd.simd_loadu(row_zp, i)
        px = simd.simd_loadu(px_row, i)
        py = simd.simd_loade(pyj)
        pz = simd.simd_loade(pzk)

        u_dudx = simd.simd_vdiv(simd.simd_vmuld(px, simd.simd_vsub(xm, c)), dx_b)
        u_dudy = simd.simd_vdiv(simd.simd_vmuld(py, simd.simd_vsub(ym, c)), dy_b)
        u_dudz = simd.simd_vdiv(simd.simd_vmuld(pz, simd.simd_vsub(zm, c)), dz_b)
        # d2udx2 = (-2*c + xm + xp) / dx^2, via VMAD as in the paper's listing
        d2x = simd.simd_vdiv(simd.simd_vadd(simd.simd_vmad(m2, c, xm), xp), dx2_b)
        d2y = simd.simd_vdiv(simd.simd_vadd(simd.simd_vmad(m2, c, ym), yp), dy2_b)
        d2z = simd.simd_vdiv(simd.simd_vadd(simd.simd_vmad(m2, c, zm), zp), dz2_b)

        adv = simd.simd_vadd(simd.simd_vadd(u_dudx, u_dudy), u_dudz)
        dif = simd.simd_vadd(simd.simd_vadd(d2x, d2y), d2z)
        du = simd.simd_vadd(adv, simd.simd_vmuld(nu_b, dif))
        out = simd.simd_vadd(c, simd.simd_vmuld(dt_b, du))
        simd.simd_storeu(row_out, i, out)
        i += simd.VECTOR_WIDTH

    while i < n:  # scalar epilogue for edge tiles
        c = row_c[i]
        u_dudx = px_row[i] * (row_xm[i] - c) / dx
        u_dudy = pyj * (row_ym[i] - c) / dy
        u_dudz = pzk * (row_zm[i] - c) / dz
        d2x = (-2.0 * c + row_xm[i] + row_xp[i]) / (dx * dx)
        d2y = (-2.0 * c + row_ym[i] + row_yp[i]) / (dy * dy)
        d2z = (-2.0 * c + row_zm[i] + row_zp[i]) / (dz * dz)
        du = (u_dudx + u_dudy + u_dudz) + nu * (d2x + d2y + d2z)
        row_out[i] = c + dt * du
        i += 1


def apply_kernel_simd(
    u_old: CCVariable,
    u_new: CCVariable,
    grid: Grid,
    t: float,
    dt: float,
    nu: float = NU,
    exp=ieee_exp,
    tile_shape: tuple[int, int, int] = (16, 16, 8),
    ldm_bytes: int = DEFAULT_LDM_BYTES,
) -> None:
    """One forward-Euler step on a patch, tiled and vectorized."""
    if u_old.ghosts < 1:
        raise ValueError("Burgers kernel needs one layer of ghost cells")
    patch = u_old.patch
    dx, dy, dz = grid.spacing
    plan = TilePlan(patch_extent=patch.extent, tile_shape=tile_shape, ghosts=1)
    src = u_old.data
    dst = u_new.interior

    for tile in plan.tiles():
        (lx, ly, lz), (hx, hy, hz) = plan.tile_region(tile)
        tx, ty, tz = hx - lx, hy - ly, hz - lz
        # "athread_get": stage ghosted tile into the LDM (capacity-checked)
        ldm = LDM(ldm_bytes)
        ldm.alloc_array("u", (tx + 2, ty + 2, tz + 2))
        ldm.alloc_array("u_new", (tx, ty, tz))
        tile_u = np.asfortranarray(src[lx : hx + 2, ly : hy + 2, lz : hz + 2])
        tile_out = np.zeros((tx, ty, tz), order="F")

        # phi coefficients at this tile's cell centres
        gx0 = patch.low[0] + lx
        px_row = phi_cells(grid, 0, gx0, gx0 + tx, t, nu, exp)
        for k in range(tz):
            pzk = _phi_scalar(grid, 2, patch.low[2] + lz + k, t, nu, exp)
            for j in range(ty):
                pyj = _phi_scalar(grid, 1, patch.low[1] + ly + j, t, nu, exp)
                J, K = j + 1, k + 1
                _kernel_row_simd(
                    np.ascontiguousarray(tile_u[1:-1, J, K]),
                    np.ascontiguousarray(tile_u[0:-2, J, K]),
                    np.ascontiguousarray(tile_u[2:, J, K]),
                    np.ascontiguousarray(tile_u[1:-1, J - 1, K]),
                    np.ascontiguousarray(tile_u[1:-1, J + 1, K]),
                    np.ascontiguousarray(tile_u[1:-1, J, K - 1]),
                    np.ascontiguousarray(tile_u[1:-1, J, K + 1]),
                    tile_out[:, j, k],
                    px_row,
                    pyj,
                    pzk,
                    dx,
                    dy,
                    dz,
                    nu,
                    dt,
                )
        # "athread_put": write the tile interior back
        dst[lx:hx, ly:hy, lz:hz] = tile_out
        ldm.reset()
