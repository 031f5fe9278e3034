"""Tests for the event-level CPE tile scheduler simulation.

The headline test validates the production analytic formula
(CoreRates.cluster_kernel_time) against the executable event-level
model — the two must agree exactly for the paper's static z-partition.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.burgers.flops import BURGERS_KERNEL_COST
from repro.core.tiling import TilePlan
from repro.sunway.corerates import CoreRates, KernelCost, TileWork
from repro.sunway.dma import DMAEngine
from tests.sunway.cpe_detail import simulate_cluster


def paper_plan(pe=(32, 32, 512)):
    return TilePlan(patch_extent=pe, tile_shape=(16, 16, 8), ghosts=1)


@pytest.mark.parametrize("simd", [False, True])
@pytest.mark.parametrize("pe", [(16, 16, 512), (32, 64, 512), (128, 128, 512)])
def test_event_level_matches_analytic(pe, simd):
    """The analytic cluster time equals the event-level simulation."""
    rates, dma = CoreRates(), DMAEngine()
    per_cpe = paper_plan(pe).per_cpe_work()
    analytic = rates.cluster_kernel_time(per_cpe, BURGERS_KERNEL_COST, dma, simd=simd)
    simulated = simulate_cluster(per_cpe, BURGERS_KERNEL_COST, rates, dma, simd=simd)
    assert simulated.duration == pytest.approx(analytic, rel=1e-12)


def test_paper_partition_is_perfectly_balanced():
    """512/8 z-slabs over 64 CPEs: every CPE equally busy."""
    rates, dma = CoreRates(), DMAEngine()
    res = simulate_cluster(paper_plan().per_cpe_work(), BURGERS_KERNEL_COST, rates, dma)
    assert res.imbalance == pytest.approx(1.0, rel=1e-12)
    assert all(n == res.tiles_done[0] for n in res.tiles_done)


def test_unbalanced_assignment_and_work_stealing():
    """With fewer z-slabs than CPEs, most CPEs idle (the paper's noted
    imbalance); work stealing is the future-work remedy."""
    rates, dma = CoreRates(), DMAEngine()
    plan = TilePlan(patch_extent=(64, 64, 64), tile_shape=(16, 16, 8), ghosts=1)
    static = simulate_cluster(plan.per_cpe_work(), BURGERS_KERNEL_COST, rates, dma)
    stolen = simulate_cluster(
        plan.per_cpe_work(), BURGERS_KERNEL_COST, rates, dma, work_stealing=True
    )
    # 8 slabs of 16 tiles: static leaves 56 CPEs idle
    assert sum(1 for n in static.tiles_done if n == 0) == 56
    # stealing spreads the 128 tiles over all 64 CPEs: 2 each
    assert all(n == 2 for n in stolen.tiles_done)
    assert stolen.duration < static.duration
    # 16 tiles serial vs 2 tiles: 8x speedup
    assert static.duration / stolen.duration == pytest.approx(8.0, rel=1e-9)


def test_async_dma_faster_at_event_level():
    rates, dma = CoreRates(), DMAEngine()
    per_cpe = paper_plan().per_cpe_work()
    sync = simulate_cluster(per_cpe, BURGERS_KERNEL_COST, rates, dma)
    asyn = simulate_cluster(per_cpe, BURGERS_KERNEL_COST, rates, dma, async_dma=True)
    assert asyn.duration < sync.duration


def test_empty_cluster():
    rates, dma = CoreRates(), DMAEngine()
    res = simulate_cluster([], BURGERS_KERNEL_COST, rates, dma)
    assert res.duration == 0.0 and res.cpe_busy == []


def test_total_tiles_conserved_under_stealing():
    rates, dma = CoreRates(), DMAEngine()
    per_cpe = paper_plan((32, 32, 512)).per_cpe_work()
    total = sum(len(t) for t in per_cpe)
    res = simulate_cluster(
        per_cpe, BURGERS_KERNEL_COST, rates, dma, work_stealing=True
    )
    assert sum(res.tiles_done) == total


@settings(deadline=None, max_examples=30)
@given(
    ncpe=st.integers(1, 8),
    tiles=st.lists(st.integers(1, 2000), min_size=1, max_size=24),
)
def test_property_stealing_within_graham_bound(ncpe, tiles):
    """Work stealing is greedy list scheduling: its makespan obeys
    Graham's (2 - 1/m) bound relative to the optimum, hence also
    relative to any static split, and can never beat the critical tile
    or the perfectly balanced lower bound."""
    rates = CoreRates(cpe_scalar_flops=1e9)
    dma = DMAEngine(bandwidth=1e9, startup=0.0, chunk_penalty=0.0)
    cost = KernelCost(stencil_flops=100, exp_calls=0)
    per_cpe = [[] for _ in range(ncpe)]
    for i, cells in enumerate(tiles):
        per_cpe[i % ncpe].append(
            TileWork(cells=cells, get_bytes=0, get_chunks=1, put_bytes=0, put_chunks=1)
        )
    static = simulate_cluster(per_cpe, cost, rates, dma)
    stolen = simulate_cluster(per_cpe, cost, rates, dma, work_stealing=True)
    tile_times = [
        rates.tile_time(w, cost, dma, simd=False) for tl in per_cpe for w in tl
    ]
    lower = max(max(tile_times), sum(tile_times) / ncpe)
    assert stolen.duration >= lower - 1e-15
    assert stolen.duration <= static.duration * (2 - 1 / ncpe) + 1e-12
    # greedy also respects Graham vs the balanced lower bound
    assert stolen.duration <= lower * (2 - 1 / ncpe) + 1e-12
