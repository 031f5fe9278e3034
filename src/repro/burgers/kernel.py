"""The Burgers kernel (paper Algorithm 1).

Two numerically identical implementations:

* :func:`apply_kernel` — the production form: vectorized NumPy over the
  whole patch (the guides' "vectorize the loop" idiom).  The stencil
  runs on contiguous shifted slices of the flattened array and writes
  into three scratch buffers, not one temporary per operation.  The phi
  coefficients come from the per-step tables of
  :func:`~repro.burgers.phi.phi_cells`: x and y as one memoized z-plane
  each, z as one factor per plane, so every multiply has a contiguous
  inner operand instead of a 3-D broadcast.
* :func:`apply_kernel_cell_loop` — a literal per-cell transliteration of
  Algorithm 1, kept as the executable specification; tests assert the
  production kernel matches it bitwise on small patches.

Exact scaling.  Algorithm 1 divides by the spacings ``dx`` and ``dx*dx``.
When a divisor ``d`` is a power of two with a finite reciprocal, ``1/d``
is itself a double, exactly, so ``x / d`` and ``x * (1/d)`` are the same
real number.  IEEE 754 rounds each operation's exact result once, so the
two round to the same double for every finite ``x``, subnormal inputs,
underflowing and overflowing results included.  :func:`apply_kernel`
therefore multiplies by that reciprocal where it exists (the benchmark
grids' 1/64 and 1/128, and their squares; see :func:`divider`) and
divides otherwise (1/12, 0.1); a multiply pass costs about a third of a
division pass.  This is a rewrite of the same arithmetic, not an
approximation: the kernels still agree bitwise, and tests check the
identity on random bit patterns.

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

import functools
import math

import numpy as np

from repro.burgers.phi import phi, phi_cells, NU
from repro.core.grid import Grid
from repro.core.variables import CCVariable
from repro.sunway.fastmath import ieee_exp


def divider(d: float) -> tuple[np.ufunc, float]:
    """The ufunc and operand that divide an array by ``d`` exactly as
    ``x / d`` does: ``(np.multiply, 1.0 / d)`` when ``d`` is a power of
    two with a finite reciprocal (see the module docstring), else
    ``(np.divide, d)``."""
    mantissa, _ = math.frexp(d)
    if abs(mantissa) == 0.5:
        inv = 1.0 / d
        if math.isfinite(inv):
            return np.multiply, inv
    return np.divide, d


@functools.lru_cache(maxsize=8)
def _dividers(grid: Grid) -> tuple[tuple[np.ufunc, float], ...]:
    """:func:`divider` of dx, dy, dz, dx*dx, dy*dy and dz*dz."""
    spacing = grid.spacing
    return tuple(divider(d) for d in (*spacing, *(d * d for d in spacing)))


@functools.lru_cache(maxsize=64)
def _phi_plane(grid: Grid, axis: int, lo: int, hi: int, reps: int, t, nu, exp) -> np.ndarray:
    """phi over ``[lo, hi)`` of axis 0 or 1, spread over one ghosted z-plane.

    The x factors are tiled ``reps`` (= plane rows) times, each y factor
    is repeated ``reps`` (= row length) times, so the plane multiplies a
    ``(z, plane)`` view of the stencil buffers as one contiguous operand.
    Read-only; one plane is ``gx * gy`` doubles.
    """
    f = phi_cells(grid, axis, lo, hi, t, nu, exp)
    plane = np.tile(f, reps) if axis == 0 else np.repeat(f, reps)
    plane.flags.writeable = False
    return plane


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
    g = u_old.ghosts
    # Work on the flattened z-planes that hold interior cells.  In the
    # Fortran-ordered ghosted array a shift of the flat index by 1, sy or
    # sz is the x, y or z neighbour, so every operand is one contiguous
    # slice.  Cells on the x/y ghost rim get meaningless values and are
    # dropped at the end; interior cells see exactly Algorithm 1's operands.
    gx, gy, gz = u_old.data.shape
    sy, sz = gx, gx * gy
    nz = gz - 2 * g
    flat = u_old.data.reshape(-1, order="F")
    n = nz * sz

    def at(shift: int) -> np.ndarray:
        return flat[g * sz + shift : g * sz + shift + n]

    c = at(0)
    lo, hi = patch.low, patch.high
    # phi coefficients as contiguous operands of the (z, plane) views
    px = _phi_plane(grid, 0, lo[0] - g, hi[0] + g, gy, t, nu, exp)
    py = _phi_plane(grid, 1, lo[1] - g, hi[1] + g, gx, t, nu, exp)
    pz = phi_cells(grid, 2, lo[2], hi[2], t, nu, exp)[:, None]
    (ox, dx), (oy, dy), (oz, dz), (oxx, dxx), (oyy, dyy), (ozz, dzz) = _dividers(grid)

    # du = (u_dudx + u_dudy + u_dudz) + nu * (d2udx2 + d2udy2 + d2udz2),
    # each sum in exactly that order, through three scratch buffers: the
    # diffusion first, while the buffer holding -2*c is still needed.
    dif, adv, tmp = np.empty(n), np.empty(n), np.empty(n)
    m2c = adv
    np.multiply(c, -2.0, out=m2c)
    np.add(m2c, at(-1), out=dif)
    dif += at(1)
    oxx(dif, dxx, out=dif)
    for shift, op, d in ((sy, oyy, dyy), (sz, ozz, dzz)):
        np.add(m2c, at(-shift), out=tmp)
        tmp += at(shift)
        op(tmp, d, out=tmp)
        dif += tmp
    dif *= nu
    adv2, tmp2 = adv.reshape(nz, sz), tmp.reshape(nz, sz)
    np.subtract(at(-1), c, out=adv)
    adv2 *= px
    ox(adv, dx, out=adv)
    np.subtract(at(-sy), c, out=tmp)
    tmp2 *= py
    oy(tmp, dy, out=tmp)
    adv += tmp
    np.subtract(at(-sz), c, out=tmp)
    tmp2 *= pz
    oz(tmp, dz, out=tmp)
    adv += tmp
    adv += dif
    adv *= dt
    np.add(c, adv, out=dif)
    u_new.interior[...] = dif.reshape((gx, gy, nz), order="F")[g:-g, g:-g, :]


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
