"""Tests for the SIMD intrinsics emulation and the per-cell flop count."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sunway import simd
from repro.burgers.flops import BURGERS_KERNEL_COST, table1_row
from repro.core.grid import Grid
from repro.sunway.corerates import KernelCost
from repro.sunway.fastmath import FAST_EXP_FLOPS, IEEE_EXP_FLOPS


# -- SIMD ---------------------------------------------------------------------

def test_vec4_requires_four_lanes():
    with pytest.raises(ValueError):
        simd.Vec4([1.0, 2.0, 3.0])


def test_vec4_copies_input():
    src = np.ones(4)
    v = simd.Vec4(src)
    src[0] = 99
    assert v.lanes[0] == 1.0


def test_simd_set_and_loade():
    v = simd.simd_set(1, 2, 3, 4)
    assert v.lanes.tolist() == [1, 2, 3, 4]
    b = simd.simd_loade(7.5)
    assert b.lanes.tolist() == [7.5] * 4


def test_loadu_storeu_roundtrip():
    row = np.arange(10, dtype=np.float64)
    v = simd.simd_loadu(row, 3)
    assert v.lanes.tolist() == [3, 4, 5, 6]
    simd.simd_storeu(row, 0, v)
    assert row[:4].tolist() == [3, 4, 5, 6]


def test_loadu_bounds_checked():
    row = np.arange(6, dtype=np.float64)
    with pytest.raises(IndexError):
        simd.simd_loadu(row, 3)
    with pytest.raises(IndexError):
        simd.simd_storeu(row, -1, simd.simd_loade(0))
    with pytest.raises(ValueError):
        simd.simd_loadu(np.zeros((2, 4)), 0)


def test_arithmetic_intrinsics():
    a = simd.simd_set(1, 2, 3, 4)
    b = simd.simd_set(10, 20, 30, 40)
    c = simd.simd_loade(1.0)
    assert simd.simd_vadd(a, b).lanes.tolist() == [11, 22, 33, 44]
    assert simd.simd_vsub(b, a).lanes.tolist() == [9, 18, 27, 36]
    assert simd.simd_vmuld(a, b).lanes.tolist() == [10, 40, 90, 160]
    assert simd.simd_vmad(a, b, c).lanes.tolist() == [11, 41, 91, 161]
    assert simd.simd_vdiv(b, a).lanes.tolist() == [10, 10, 10, 10]


@given(st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=4),
       st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=4))
def test_property_vmad_matches_scalar(xs, ys):
    """VMAD lanes equal elementwise a*b+c — vectorized == scalar numerics."""
    a, b = simd.Vec4(xs), simd.Vec4(ys)
    c = simd.simd_loade(0.5)
    out = simd.simd_vmad(a, b, c)
    expect = np.array(xs) * np.array(ys) + 0.5
    assert np.array_equal(out.lanes, expect)


def test_paper_listing_d2udz2_snippet():
    """Replicate Algorithm 2's d2udz2 computation against plain numpy."""
    rng = np.random.default_rng(42)
    u_k = rng.random(8)
    u_km = rng.random(8)
    u_kp = rng.random(8)
    z_dx = 0.25
    i = 2
    v0 = simd.simd_set(-2.0, -2.0, -2.0, -2.0)
    v1 = simd.simd_loadu(u_k, i)
    v2 = simd.simd_loadu(u_km, i)
    v3 = simd.simd_loadu(u_kp, i)
    v0 = simd.simd_vmad(v0, v1, v2)
    v0 = simd.simd_vadd(v0, v3)
    v2 = simd.simd_loade(z_dx * z_dx)
    v_d2udz2 = simd.simd_vmuld(v0, v2)
    expect = (-2 * u_k[i:i+4] + u_km[i:i+4] + u_kp[i:i+4]) * (z_dx * z_dx)
    assert np.allclose(v_d2udz2.lanes, expect, rtol=1e-15)


# -- flop count ------------------------------------------------------------------

def test_exp_expands_to_library_flops():
    """An exponential counts as the flops of the library evaluating it."""
    exps = KernelCost(stencil_flops=0, exp_calls=6)
    assert exps.flops_per_cell(fast_exp=True) == 6 * FAST_EXP_FLOPS
    assert exps.flops_per_cell(fast_exp=False) == 6 * IEEE_EXP_FLOPS
    assert BURGERS_KERNEL_COST.flops_per_cell(fast_exp=True) == 95 + 6 * FAST_EXP_FLOPS


def test_exp_share():
    """Table I's exponential share is the paper's ~215 of ~311, under
    either exponential library."""
    grid = Grid(extent=(32, 32, 512))
    assert table1_row(grid)["exp_share"] == 216 / 311
    ieee = table1_row(grid, fast_exp=False)
    assert ieee["exp_share"] == 6 * IEEE_EXP_FLOPS / (95 + 6 * IEEE_EXP_FLOPS)
    assert ieee["total_flops"] > table1_row(grid)["total_flops"]
