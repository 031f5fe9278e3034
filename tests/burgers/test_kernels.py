"""Tests for the three Burgers kernel implementations.

The NumPy kernel is the production path; the cell loop is the literal
Algorithm 1 specification; the SIMD kernel is the tiled Algorithm 2.
All three must agree bitwise (on SW26010 too, vectorization changes
speed, not results), and the scheme must converge to the exact solution.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.burgers.exact import exact_on_region
from repro.burgers.kernel import apply_kernel, apply_kernel_cell_loop, divider
from repro.burgers.kernel_simd import apply_kernel_simd
from repro.burgers.phi import NU
from repro.core.grid import Grid
from repro.core.variables import CCVariable
from repro.core.varlabel import VarLabel
from repro.sunway.fastmath import fast_exp, ieee_exp
from repro.sunway.ldm import LDMAllocationError

U = VarLabel("u")


def prepared_patch(extent=(8, 8, 8), layout=(1, 1, 1), t=0.0):
    """A patch with u = exact solution everywhere including ghosts."""
    grid = Grid(extent=extent, layout=layout)
    patch = grid.patch((0, 0, 0))
    u_old = CCVariable(U, patch, ghosts=1)
    u_old.data[...] = exact_on_region(grid, patch.region.grown(1), t=t)
    u_new = CCVariable(U, patch, ghosts=1)
    return grid, patch, u_old, u_new


def test_numpy_matches_cell_loop_bitwise():
    grid, patch, u_old, a = prepared_patch()
    b = CCVariable(U, patch, ghosts=1)
    apply_kernel(u_old, a, grid, t=0.0, dt=1e-4)
    apply_kernel_cell_loop(u_old, b, grid, t=0.0, dt=1e-4)
    assert np.array_equal(a.interior, b.interior)


@pytest.mark.parametrize("extent", [(16, 16, 16), (12, 12, 12)], ids=["pow2", "twelfths"])
def test_kernels_agree_on_both_divider_branches(extent):
    """A 16^3 grid has power-of-two spacings, which the NumPy kernel
    multiplies by their exact reciprocals; a 12^3 grid's 1/12 keeps the
    division.  The cell loop and the SIMD kernel divide either way, and
    all three still agree bitwise, at t > 0 and with the fast exp."""
    grid = Grid(extent=extent)
    patch = grid.patch((0, 0, 0))
    ops = {divider(d)[0] for d in (*grid.spacing, *(d * d for d in grid.spacing))}
    assert ops == ({np.multiply} if extent[0] == 16 else {np.divide})
    t, exp = 0.01, fast_exp
    u_old = CCVariable(U, patch, ghosts=1)
    u_old.data[...] = exact_on_region(grid, patch.region.grown(1), t=t, exp=exp)
    a, b, c = (CCVariable(U, patch, ghosts=1) for _ in range(3))
    apply_kernel(u_old, a, grid, t=t, dt=1e-4, exp=exp)
    apply_kernel_cell_loop(u_old, b, grid, t=t, dt=1e-4, exp=exp)
    apply_kernel_simd(u_old, c, grid, t=t, dt=1e-4, exp=exp, tile_shape=(4, 4, 4))
    assert not np.array_equal(a.interior, u_old.interior)
    assert np.array_equal(a.interior, b.interior)
    assert np.array_equal(a.interior, c.interior)


#: Power-of-two spacings: the kernel's own (1/64, 1/128 and their
#: squares), a fine 2^-20, 0.5, both ends of the range whose reciprocal
#: is finite, and a negative one.
POW2_SPACINGS = [2.0**k for k in (-6, -7, -12, -14, -20, -1, -1023, 1023)] + [-0.5]


def _bits(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("d", POW2_SPACINGS)
def test_reciprocal_multiply_matches_division_on_random_bit_patterns(d):
    """x * (1/d) and x / d round the same real number when d = 2^k, so
    they agree bit for bit on every finite double, subnormals and values
    that overflow or underflow included."""
    rng = np.random.default_rng(7)
    x = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, 200_000, dtype=np.int64)
    x = x.view(np.float64)
    tiny = np.array([5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 0.0, -0.0, 1.7e308])
    x = np.concatenate([x[np.isfinite(x)], tiny])
    op, operand = divider(d)
    assert op is np.multiply and operand == 1.0 / d
    with np.errstate(over="ignore", under="ignore"):
        assert np.array_equal(_bits(op(x, operand)), _bits(x / d))


@given(
    x=st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    k=st.integers(min_value=-1023, max_value=1023),
)
def test_exact_scaling_equals_division_property(x, k):
    d = 2.0**k
    op, operand = divider(d)
    with np.errstate(over="ignore", under="ignore"):
        assert _bits(op(np.float64(x), operand)) == _bits(np.float64(x) / d)


@pytest.mark.parametrize("d", [1 / 12, 0.1, 3.0, 2.0**-1074, 0.0])
def test_divider_keeps_the_division_unless_it_is_exact(d):
    """Non-powers of two, a power of two whose reciprocal overflows
    (2^-1074) and zero keep the plain division."""
    assert divider(d) == (np.divide, d)


def test_simd_matches_numpy_bitwise():
    grid, patch, u_old, a = prepared_patch(extent=(16, 16, 16))
    b = CCVariable(U, patch, ghosts=1)
    apply_kernel(u_old, a, grid, t=0.0, dt=1e-4)
    apply_kernel_simd(u_old, b, grid, t=0.0, dt=1e-4, tile_shape=(16, 16, 8))
    assert np.array_equal(a.interior, b.interior)


def test_simd_matches_numpy_with_edge_tiles():
    """Tile shapes that don't divide the patch exercise the scalar
    epilogue and clipped tiles."""
    grid, patch, u_old, a = prepared_patch(extent=(10, 6, 6))
    b = CCVariable(U, patch, ghosts=1)
    apply_kernel(u_old, a, grid, t=0.0, dt=1e-4)
    apply_kernel_simd(u_old, b, grid, t=0.0, dt=1e-4, tile_shape=(4, 4, 4))
    assert np.array_equal(a.interior, b.interior)


@pytest.mark.parametrize("exp", [ieee_exp, fast_exp], ids=["ieee", "fast"])
@pytest.mark.parametrize("tile_shape", [(4, 4, 4), (16, 16, 8)])
def test_kernels_agree_on_interior_patch_at_positive_time(exp, tile_shape):
    """Away from the origin and at t > 0 the phi coefficients come from
    offset slices of the tables; all three kernels still agree bitwise.
    The 10x6x6 patch leaves edge tiles under 4x4x4 tiling."""
    grid = Grid(extent=(30, 18, 18), layout=(3, 3, 3))
    patch = grid.patch((1, 1, 1))
    assert not grid.boundary_faces(patch)
    t = 0.037
    u_old = CCVariable(U, patch, ghosts=1)
    u_old.data[...] = exact_on_region(grid, patch.region.grown(1), t=t, exp=exp)
    a, b, c = (CCVariable(U, patch, ghosts=1) for _ in range(3))
    apply_kernel(u_old, a, grid, t=t, dt=1e-4, exp=exp)
    apply_kernel_cell_loop(u_old, b, grid, t=t, dt=1e-4, exp=exp)
    apply_kernel_simd(u_old, c, grid, t=t, dt=1e-4, exp=exp, tile_shape=tile_shape)
    assert not np.array_equal(a.interior, u_old.interior)
    assert np.array_equal(a.interior, b.interior)
    assert np.array_equal(a.interior, c.interior)


def test_simd_kernel_enforces_ldm_capacity():
    grid, patch, u_old, u_new = prepared_patch(extent=(32, 32, 32))
    with pytest.raises(LDMAllocationError):
        apply_kernel_simd(
            u_old, u_new, grid, t=0.0, dt=1e-4, tile_shape=(32, 32, 32)
        )


def test_kernel_needs_ghosts():
    grid = Grid(extent=(8, 8, 8))
    patch = grid.patch((0, 0, 0))
    bare = CCVariable(U, patch, ghosts=0)
    out = CCVariable(U, patch, ghosts=0)
    for fn in (apply_kernel, apply_kernel_cell_loop):
        with pytest.raises(ValueError, match="ghost"):
            fn(bare, out, grid, t=0.0, dt=1e-4)
    with pytest.raises(ValueError, match="ghost"):
        apply_kernel_simd(bare, out, grid, t=0.0, dt=1e-4)


def test_kernel_preserves_constant_state():
    """A constant field has zero derivatives: advection and diffusion
    terms vanish, u stays exactly constant."""
    grid, patch, u_old, u_new = prepared_patch()
    u_old.data[...] = 0.7
    apply_kernel(u_old, u_new, grid, t=0.0, dt=1e-3)
    assert np.array_equal(u_new.interior, np.full_like(u_new.interior, 0.7))


def test_single_euler_step_is_first_order_accurate():
    """One step's local truncation error shrinks ~O(dx) (upwind)."""
    errors = {}
    for n in (16, 32):
        grid, patch, u_old, u_new = prepared_patch(extent=(n, n, n))
        dt = 1e-6  # tiny dt isolates the spatial error
        apply_kernel(u_old, u_new, grid, t=0.0, dt=dt)
        exact_next = exact_on_region(grid, patch.region, t=dt)
        errors[n] = np.abs(u_new.interior - exact_next).max() / dt
    ratio = errors[16] / errors[32]
    assert ratio > 1.5  # first order: ~2x per refinement


def test_timestepped_convergence_to_exact_solution():
    """Integrate to a fixed time at two resolutions: error must drop."""
    final_t = 2e-3
    errs = {}
    for n in (12, 24):
        grid = Grid(extent=(n, n, n))
        patch = grid.patch((0, 0, 0))
        u = CCVariable(U, patch, ghosts=1)
        u.data[...] = exact_on_region(grid, patch.region.grown(1), t=0.0)
        dx = grid.spacing[0]
        dt = 0.2 * dx * dx / (6 * NU)
        steps = max(int(round(final_t / dt)), 1)
        dt = final_t / steps
        t = 0.0
        for _ in range(steps):
            nxt = CCVariable(U, patch, ghosts=1)
            # refresh all ghosts from the exact solution (single patch)
            u.data[...] = np.where(
                np.isnan(u.data), u.data, u.data
            )
            full = exact_on_region(grid, patch.region.grown(1), t=t)
            # keep interior from the integration, ghosts from BCs
            interior = u.interior.copy()
            u.data[...] = full
            u.interior[...] = interior
            apply_kernel(u, nxt, grid, t=t, dt=dt)
            u = nxt
            t += dt
        exact_final = exact_on_region(grid, patch.region, t=final_t)
        errs[n] = float(np.abs(u.interior - exact_final).max())
    assert errs[24] < errs[12]


def test_kernel_stability_under_stable_dt():
    """Repeated steps at the stable dt stay bounded by phi's range^3."""
    grid, patch, u, _ = prepared_patch(extent=(12, 12, 12))
    dx = grid.spacing[0]
    dt = 0.4 / (2 * NU * 3 / dx**2 + 3 / dx)
    t = 0.0
    for _ in range(20):
        nxt = CCVariable(U, patch, ghosts=1)
        full = exact_on_region(grid, patch.region.grown(1), t=t)
        interior = u.interior.copy()
        u.data[...] = full
        u.interior[...] = interior
        apply_kernel(u, nxt, grid, t=t, dt=dt)
        u = nxt
        t += dt
    assert np.isfinite(u.interior).all()
    assert u.interior.max() <= 1.0 + 1e-6
    assert u.interior.min() >= 0.1**3 - 1e-6
