"""The Burgers kernel (paper Algorithm 1).

Two numerically identical implementations:

* :func:`apply_kernel` — the production form: vectorized NumPy over the
  whole patch (the guides' "vectorize the loop" idiom).  The three phi
  coefficient vectors are slices of the per-step tables of
  :func:`~repro.burgers.phi.phi_cells`, broadcast over the patch; the
  stencil runs on contiguous shifted slices of the flattened array and
  writes into three scratch buffers, not one temporary per operation.
* :func:`apply_kernel_cell_loop` — a literal per-cell transliteration of
  Algorithm 1, kept as the executable specification; tests assert the
  production kernel matches it bitwise on small patches.

Sign convention: the paper's pseudo-code builds the advection terms with
backward differences as ``u_dudx = phi * (u[i-1] - u[i]) / dx`` (i.e.
``-phi u_x``) and then shows ``du = -((u_dudx + ...) + nu * (...))``,
which would flip both the advection and the diffusion sign relative to
the PDE of Eq. (1).  We implement the update consistent with Eq. (1) —
``du = (u_dudx + u_dudy + u_dudz) + nu * (d2udx2 + d2udy2 + d2udz2)`` —
which the convergence tests verify against the exact solution; the
pseudo-code's outer minus is a typesetting slip.
"""

from __future__ import annotations

import numpy as np

from repro.burgers.phi import phi, phi_cells, NU
from repro.core.grid import Grid
from repro.core.variables import CCVariable
from repro.sunway.fastmath import ieee_exp


def apply_kernel(
    u_old: CCVariable,
    u_new: CCVariable,
    grid: Grid,
    t: float,
    dt: float,
    nu: float = NU,
    exp=ieee_exp,
) -> None:
    """One forward-Euler step on a patch (vectorized).

    ``u_old`` must have its one-layer halo filled (neighbour exchange on
    interior faces, boundary conditions on physical faces); ``u_new``'s
    interior is overwritten.
    """
    if u_old.ghosts < 1:
        raise ValueError("Burgers kernel needs one layer of ghost cells")
    patch = u_old.patch
    dx, dy, dz = grid.spacing
    g = u_old.ghosts
    # Work on the flattened z-planes that hold interior cells.  In the
    # Fortran-ordered ghosted array a shift of the flat index by 1, sy or
    # sz is the x, y or z neighbour, so every operand is one contiguous
    # slice.  Cells on the x/y ghost rim get meaningless values and are
    # dropped at the end; interior cells see exactly Algorithm 1's operands.
    gx, gy, gz = u_old.data.shape
    sy, sz = gx, gx * gy
    flat = u_old.data.reshape(-1, order="F")
    n = (gz - 2 * g) * sz
    planes = (gx, gy, gz - 2 * g)

    def at(shift: int) -> np.ndarray:
        return flat[g * sz + shift : g * sz + shift + n]

    c = at(0)
    lo, hi = patch.low, patch.high
    px = phi_cells(grid, 0, lo[0] - g, hi[0] + g, t, nu, exp)[:, None, None]
    py = phi_cells(grid, 1, lo[1] - g, hi[1] + g, t, nu, exp)[None, :, None]
    pz = phi_cells(grid, 2, lo[2], hi[2], t, nu, exp)[None, None, :]

    # du = (u_dudx + u_dudy + u_dudz) + nu * (d2udx2 + d2udy2 + d2udz2),
    # in exactly that order, through three scratch buffers.
    adv, tmp, work = np.empty(n), np.empty(n), np.empty(n)
    adv3, tmp3 = adv.reshape(planes, order="F"), tmp.reshape(planes, order="F")
    np.subtract(at(-1), c, out=adv)
    adv3 *= px
    adv /= dx
    np.subtract(at(-sy), c, out=tmp)
    tmp3 *= py
    tmp /= dy
    adv += tmp
    np.subtract(at(-sz), c, out=tmp)
    tmp3 *= pz
    tmp /= dz
    adv += tmp
    dif = tmp
    np.multiply(c, -2.0, out=dif)
    dif += at(-1)
    dif += at(1)
    dif /= dx * dx
    for shift, d in ((sy, dy), (sz, dz)):
        np.multiply(c, -2.0, out=work)
        work += at(-shift)
        work += at(shift)
        work /= d * d
        dif += work
    dif *= nu
    adv += dif
    adv *= dt
    np.add(c, adv, out=work)
    u_new.interior[...] = work.reshape(planes, order="F")[g:-g, g:-g, :]


def apply_kernel_cell_loop(
    u_old: CCVariable,
    u_new: CCVariable,
    grid: Grid,
    t: float,
    dt: float,
    nu: float = NU,
    exp=ieee_exp,
) -> None:
    """Literal Algorithm 1: explicit loop over every cell (tests only)."""
    if u_old.ghosts < 1:
        raise ValueError("Burgers kernel needs one layer of ghost cells")
    patch = u_old.patch
    dx, dy, dz = grid.spacing
    u = u_old.data
    out = u_new.interior
    nx, ny, nz = patch.extent

    def center(axis: int, local: int) -> float:
        # identical float rounding to the vectorized kernel's coordinates
        return grid.domain_low[axis] + (patch.low[axis] + local + 0.5) * grid.spacing[axis]

    for i in range(nx):
        pxi = float(phi(center(0, i), t, nu, exp))
        for j in range(ny):
            pyj = float(phi(center(1, j), t, nu, exp))
            for k in range(nz):
                pzk = float(phi(center(2, k), t, nu, exp))
                I, J, K = i + 1, j + 1, k + 1  # ghosted-array indices
                c = u[I, J, K]
                u_dudx = pxi * (u[I - 1, J, K] - c) / dx
                u_dudy = pyj * (u[I, J - 1, K] - c) / dy
                u_dudz = pzk * (u[I, J, K - 1] - c) / dz
                d2udx2 = (-2.0 * c + u[I - 1, J, K] + u[I + 1, J, K]) / (dx * dx)
                d2udy2 = (-2.0 * c + u[I, J - 1, K] + u[I, J + 1, K]) / (dy * dy)
                d2udz2 = (-2.0 * c + u[I, J, K - 1] + u[I, J, K + 1]) / (dz * dz)
                du = (u_dudx + u_dudy + u_dudz) + nu * (d2udx2 + d2udy2 + d2udz2)
                out[i, j, k] = c + dt * du
