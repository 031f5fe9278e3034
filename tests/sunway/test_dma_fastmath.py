"""Tests for the DMA cost model and the fast/IEEE exponential libraries."""

import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sunway.dma import DMAEngine, DMATransfer
from repro.sunway import fastmath


# -- DMA ---------------------------------------------------------------------

def test_transfer_time_is_latency_plus_bandwidth():
    eng = DMAEngine(bandwidth=1e9, startup=1e-6, chunk_penalty=0.0)
    assert eng.get_time(1000) == pytest.approx(1e-6 + 1000 / 1e9)
    assert eng.put_time(0) == pytest.approx(1e-6)


def test_chunked_transfer_pays_per_chunk_penalty():
    eng = DMAEngine(bandwidth=1e9, startup=1e-6, chunk_penalty=0.5)
    packed = eng.get_time(10_000, chunks=1)
    strided = eng.get_time(10_000, chunks=101)
    assert strided == pytest.approx(packed + 100 * 0.5e-6)
    assert strided > packed


def test_transfer_validation():
    with pytest.raises(ValueError):
        DMATransfer("sideways", 10)
    with pytest.raises(ValueError):
        DMATransfer("get", -1)
    with pytest.raises(ValueError):
        DMATransfer("get", 10, contiguous_chunks=0)
    with pytest.raises(ValueError):
        DMAEngine(bandwidth=0)
    with pytest.raises(ValueError):
        DMAEngine(startup=-1e-9)


def test_sync_tile_cycle_is_serial():
    eng = DMAEngine(bandwidth=1e9, startup=0.0, chunk_penalty=0.0)
    t = eng.tile_cycle_time(get_bytes=1000, put_bytes=500, compute_time=3e-6)
    assert t == pytest.approx(1e-6 + 3e-6 + 0.5e-6)


def test_async_dma_tile_cycle_hides_dominated_phase():
    """The paper's future-work double buffering: cycle = max(compute, dma)."""
    eng = DMAEngine(bandwidth=1e9, startup=0.0, chunk_penalty=0.0)
    compute_bound = eng.tile_cycle_time(1000, 500, compute_time=5e-6, async_dma=True)
    assert compute_bound == pytest.approx(5e-6)
    dma_bound = eng.tile_cycle_time(10_000, 5_000, compute_time=5e-6, async_dma=True)
    assert dma_bound == pytest.approx(15e-6)
    # async never slower than sync
    assert compute_bound <= eng.tile_cycle_time(1000, 500, compute_time=5e-6)


@given(
    st.integers(0, 10**7),
    st.integers(0, 10**7),
    st.floats(0, 1e-2, allow_nan=False),
)
def test_property_async_dma_never_slower(get_b, put_b, compute):
    eng = DMAEngine()
    sync = eng.tile_cycle_time(get_b, put_b, compute)
    asyn = eng.tile_cycle_time(get_b, put_b, compute, async_dma=True)
    assert asyn <= sync + 1e-15


# -- fastmath -------------------------------------------------------------------

def test_ieee_exp_is_libm():
    x = np.linspace(-5, 5, 100)
    assert np.array_equal(fastmath.ieee_exp(x), np.exp(x))


def test_fast_exp_accuracy_bounded():
    """Fast library: inaccurate but bounded — 'does not greatly impact'."""
    x = np.linspace(-50, 50, 20001)
    rel = np.abs(fastmath.fast_exp(x) - np.exp(x)) / np.exp(x)
    assert rel.max() < 1e-4
    assert rel.max() > 1e-9  # genuinely non-conforming


def test_fast_exp_scalar_roundtrip():
    y = fastmath.fast_exp(1.0)
    assert isinstance(y, float)
    assert y == pytest.approx(np.e, rel=1e-4)


def test_fast_exp_saturates_like_libm():
    assert fastmath.fast_exp(1e4) == np.inf
    assert fastmath.fast_exp(-1e4) == 0.0


def test_fast_exp_saturates_at_libm_bounds():
    """Finite up to log(DBL_MAX), subnormal down to about -745, like libm."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        top = fastmath.fast_exp(709.5)
        assert np.isfinite(top)
        assert abs(top / np.exp(709.5) - 1.0) < 1e-4
        assert fastmath.fast_exp(710.0) == np.inf
        assert fastmath.fast_exp(-740.0) > 0.0
        assert fastmath.fast_exp(-746.0) == 0.0
        arr = fastmath.fast_exp(np.array([709.5, 710.0, -740.0, -746.0]))
        assert np.isfinite(arr[0]) and arr[1] == np.inf and arr[2] > 0.0 and arr[3] == 0.0


def test_fast_exp_propagates_nan_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(fastmath.fast_exp(float("nan")))
        out = fastmath.fast_exp(np.array([np.nan, 0.0, -np.inf, np.inf]))
    assert np.isnan(out[0])
    assert out[1] == 1.0 and out[2] == 0.0 and out[3] == np.inf


def test_fast_exp_zero_is_near_one():
    assert fastmath.fast_exp(0.0) == pytest.approx(1.0, rel=1e-12)


@given(st.floats(min_value=-600, max_value=600, allow_nan=False))
def test_property_fast_exp_relative_error(x):
    exact = np.exp(x)
    if exact == 0 or np.isinf(exact):
        return
    rel = abs(fastmath.fast_exp(x) - exact) / exact
    assert rel < 1e-4


@given(st.floats(-300, 300), st.floats(-300, 300))
def test_property_fast_exp_monotone(a, b):
    """Monotonicity survives the approximation (needed for stable phi)."""
    lo, hi = sorted((a, b))
    assert fastmath.fast_exp(lo) <= fastmath.fast_exp(hi) * (1 + 1e-12)


def test_exp_function_selector():
    assert fastmath.exp_function(True) is fastmath.fast_exp
    assert fastmath.exp_function(False) is fastmath.ieee_exp
    assert fastmath.exp_flops(True) == fastmath.FAST_EXP_FLOPS
    assert fastmath.exp_flops(False) == fastmath.IEEE_EXP_FLOPS


def test_exp_flop_costs_match_paper_share():
    """~215 of ~311 flops/cell come from 6 exponentials => ~36 each."""
    assert 6 * fastmath.FAST_EXP_FLOPS == 216
    assert fastmath.IEEE_EXP_FLOPS > fastmath.FAST_EXP_FLOPS
