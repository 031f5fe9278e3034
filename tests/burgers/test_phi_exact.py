"""Tests for phi (stable evaluation) and the exact solution."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.burgers.phi import phi, phi_naive
from repro.burgers.exact import exact_solution, exact_on_region, solution_errors
from repro.core.grid import Grid
from repro.core.patch import Region
from repro.sunway.fastmath import fast_exp


# -- phi -----------------------------------------------------------------------

def test_phi_matches_naive_where_naive_is_finite():
    """Near the fronts the textbook form is finite; they must agree."""
    x = np.linspace(0.3, 0.7, 401)
    stable = phi(x, t=0.01)
    naive = phi_naive(x, t=0.01)
    assert np.allclose(stable, naive, rtol=1e-12)


def test_phi_stable_where_naive_overflows():
    """Far from the fronts the naive form overflows; stable must not."""
    with np.errstate(over="ignore", invalid="ignore"):
        naive = phi_naive(np.array([-20.0, -50.0]), t=0.0)
    assert not np.all(np.isfinite(naive))
    stable = phi(np.array([-20.0, -50.0]), t=0.0)
    assert np.all(np.isfinite(stable))


def test_phi_bounds():
    """phi is a convex combination of 0.1, 0.5 and 1.0."""
    lo, hi = 0.1, 1.0
    x = np.linspace(-10, 10, 5001)
    for t in (0.0, 0.05, 0.5):
        vals = phi(x, t)
        assert vals.min() >= lo - 1e-12
        assert vals.max() <= hi + 1e-12


def test_phi_limits():
    """x -> -inf selects e^a (value 0.1 coefficient... the largest exponent
    depends on slope); check the asymptotic plateaus are members of
    {0.1, 0.5, 1.0}."""
    left = float(phi(-100.0, 0.0))
    right = float(phi(100.0, 0.0))
    assert min(abs(left - v) for v in (0.1, 0.5, 1.0)) < 1e-9
    assert min(abs(right - v) for v in (0.1, 0.5, 1.0)) < 1e-9
    assert left != right  # a travelling front exists


def test_phi_scalar_and_array_agree():
    xs = np.array([0.2, 0.5, 0.8])
    vec = phi(xs, 0.01)
    for i, x in enumerate(xs):
        assert float(phi(float(x), 0.01)) == vec[i]


def test_phi_with_fast_exp_close_to_ieee():
    """Sec. VI-C: fast library's inaccuracy 'does not greatly impact'."""
    x = np.linspace(-2, 2, 1001)
    a = phi(x, 0.01)
    b = phi(x, 0.01, exp=fast_exp)
    assert np.allclose(a, b, rtol=2e-4)
    assert not np.array_equal(a, b)  # genuinely different library


@given(st.floats(-50, 50), st.floats(0, 1))
def test_property_phi_bounded(x, t):
    v = float(phi(x, t))
    assert 0.1 - 1e-12 <= v <= 1.0 + 1e-12


def test_phi_monotone_decreasing_in_x():
    """All three exponents have negative x-slope ordering that makes phi a
    travelling wave decreasing from 1.0 to 0.1."""
    x = np.linspace(-3, 3, 2001)
    vals = phi(x, 0.0)
    assert np.all(np.diff(vals) <= 1e-12)


# -- exact solution -----------------------------------------------------------------

def test_exact_is_product_of_phis():
    assert float(exact_solution(0.3, 0.4, 0.5, 0.1)) == pytest.approx(
        float(phi(0.3, 0.1)) * float(phi(0.4, 0.1)) * float(phi(0.5, 0.1))
    )


def test_exact_on_region_matches_pointwise():
    grid = Grid(extent=(8, 8, 8))
    region = Region((1, 2, 3), (4, 6, 7))
    block = exact_on_region(grid, region, t=0.02)
    assert block.shape == region.extent
    for cell in region.cells():
        x, y, z = grid.cell_center(cell)
        i = tuple(c - l for c, l in zip(cell, region.low))
        assert block[i] == pytest.approx(float(exact_solution(x, y, z, 0.02)), rel=1e-14)


def test_exact_on_region_accepts_ghost_regions():
    grid = Grid(extent=(8, 8, 8))
    region = Region((-1, -1, -1), (0, 0, 0))  # entirely outside the domain
    block = exact_on_region(grid, region)
    assert block.shape == (1, 1, 1)
    assert np.isfinite(block).all()


def test_exact_on_region_fortran_order():
    grid = Grid(extent=(8, 8, 8))
    block = exact_on_region(grid, Region((0, 0, 0), (4, 4, 4)))
    assert block.flags.f_contiguous


# -- solution_errors ------------------------------------------------------------------

def test_solution_errors_zero_for_exact_field():
    from repro.core.datawarehouse import DataWarehouse
    from repro.core.varlabel import VarLabel

    grid = Grid(extent=(8, 8, 8), layout=(2, 2, 2))
    u = VarLabel("u")
    dw = DataWarehouse(0)
    for p in grid.patches():
        var = dw.allocate_and_put(u, p, ghosts=1)
        var.interior[...] = exact_on_region(grid, p.region, t=0.3)
    errs = solution_errors(grid, [dw], u, t=0.3)
    assert errs["linf"] == 0.0 and errs["l2"] == 0.0


def test_solution_errors_requires_matching_label():
    from repro.core.datawarehouse import DataWarehouse
    from repro.core.varlabel import VarLabel

    grid = Grid(extent=(8, 8, 8))
    with pytest.raises(ValueError, match="no patches"):
        solution_errors(grid, [DataWarehouse(0)], VarLabel("u"), t=0.0)
