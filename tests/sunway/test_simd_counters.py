"""Tests for the SIMD intrinsics emulation and the flop counters."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sunway import simd
from repro.sunway.perfcounters import FlopCounter
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


# -- FlopCounter ----------------------------------------------------------------

def test_counter_basic_accumulation():
    c = FlopCounter()
    c.count(adds=3, muls=2, divs=1, times=10)
    assert c.total == 60
    r = c.report()
    assert (r.adds, r.muls, r.divs) == (30, 20, 10)


def test_div_sqrt_count_as_one():
    """SW26010 counter convention (paper Sec. VII-E)."""
    c = FlopCounter()
    c.count(divs=1, sqrts=1)
    assert c.total == 2


def test_exp_expands_to_library_flops():
    fast = FlopCounter(fast_exp=True)
    fast.count(exps=6)
    assert fast.total == 6 * FAST_EXP_FLOPS
    assert fast.report().exp_calls == 6

    ieee = FlopCounter(fast_exp=False)
    ieee.count(exps=6)
    assert ieee.total == 6 * IEEE_EXP_FLOPS


def test_exp_share():
    c = FlopCounter()
    c.count(adds=95, exps=6)
    share = c.report().exp_share
    assert share == pytest.approx(216 / 311, abs=0.01)


def test_reset_and_merge():
    a = FlopCounter()
    a.count(adds=5)
    b = FlopCounter()
    b.count(muls=7, exps=1)
    a.merge(b)
    assert a.report().muls == 7
    assert a.report().exp_calls == 1
    a.reset()
    assert a.total == 0


def test_negative_times_rejected():
    with pytest.raises(ValueError):
        FlopCounter().count(adds=1, times=-1)


def test_report_is_snapshot():
    c = FlopCounter()
    c.count(adds=1)
    snap = c.report()
    c.count(adds=1)
    assert snap.adds == 1
    assert c.report().adds == 2
