"""Tests for LDM-constrained tiling: coverage, capacity, CPE assignment."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.tiling import (
    TilePlan,
    choose_tile_shape,
    contiguous_chunks,
    working_set_bytes,
)
from repro.sunway.ldm import LDMAllocationError


# -- contiguous_chunks -----------------------------------------------------------

def test_chunks_interior_box():
    # partial-x box: one run per (y, z) line
    assert contiguous_chunks((18, 18, 10), (130, 130, 514)) == 180


def test_chunks_full_x_plane_merge():
    assert contiguous_chunks((18, 10, 10), (18, 18, 514)) == 10


def test_chunks_full_xy_block():
    assert contiguous_chunks((18, 18, 10), (18, 18, 514)) == 1


def test_chunks_validation():
    with pytest.raises(ValueError):
        contiguous_chunks((20, 2, 2), (18, 18, 18))
    assert contiguous_chunks((0, 5, 5), (8, 8, 8)) == 0


# -- working set / tile choice ------------------------------------------------------

def test_working_set_matches_paper_41_3kb():
    """Sec. VI-A: 16x16x8 with u (ghosted) + u_new is ~41.3 KB."""
    ws = working_set_bytes((16, 16, 8), ghosts=1, fields_in=1, fields_out=1)
    assert ws == (18 * 18 * 10 + 16 * 16 * 8) * 8
    assert ws / 1024 == pytest.approx(41.3, abs=0.2)


def test_paper_tile_choice_for_all_table3_patches():
    """The paper uses 16x16x8 for the whole suite."""
    for pe in [
        (16, 16, 512), (16, 32, 512), (32, 32, 512), (32, 64, 512),
        (64, 64, 512), (64, 128, 512), (128, 128, 512),
    ]:
        assert choose_tile_shape(pe) == (16, 16, 8)


def test_chosen_tile_always_fits_ldm():
    shape = choose_tile_shape((128, 128, 512))
    assert working_set_bytes(shape) <= 64 * 1024


def test_choose_tile_impossible_raises():
    with pytest.raises(LDMAllocationError):
        choose_tile_shape((64, 64, 64), ldm_bytes=128)  # absurdly small LDM


def test_choose_tile_two_fields_in():
    """More LDM-resident fields force smaller tiles."""
    one = choose_tile_shape((64, 64, 512), fields_in=1)
    two = choose_tile_shape((64, 64, 512), fields_in=2)
    assert working_set_bytes(two, fields_in=2) <= 64 * 1024

    def cells(s):
        return s[0] * s[1] * s[2]

    assert cells(two) <= cells(one)


# -- TilePlan ---------------------------------------------------------------------

def make_plan(pe=(128, 128, 512), ts=(16, 16, 8)):
    return TilePlan(patch_extent=pe, tile_shape=ts, ghosts=1)


def test_tile_counts_and_total():
    plan = make_plan()
    assert plan.tile_counts == (8, 8, 64)


def test_tiles_cover_patch_exactly():
    plan = make_plan(pe=(32, 32, 64))
    covered = set()
    for t in plan.tiles():
        low, high = plan.tile_region(t)
        for x in range(low[0], high[0]):
            for y in range(low[1], high[1]):
                for z in range(low[2], high[2]):
                    key = (x, y, z)
                    assert key not in covered, "tiles overlap"
                    covered.add(key)
    assert len(covered) == 32 * 32 * 64


def test_edge_tiles_clipped():
    plan = TilePlan(patch_extent=(20, 16, 8), tile_shape=(16, 16, 8))
    assert plan.tile_counts == (2, 1, 1)
    low, high = plan.tile_region((1, 0, 0))
    assert low == (16, 0, 0) and high == (20, 16, 8)
    work = plan.tile_work((1, 0, 0))
    assert work.cells == 4 * 16 * 8


def test_tile_region_out_of_range():
    with pytest.raises(IndexError):
        make_plan().tile_region((99, 0, 0))


def test_z_partition_balanced_for_paper_case():
    """512/8 = 64 z-slabs over 64 CPEs: exactly one slab each."""
    plan = make_plan()
    per_cpe = plan.per_cpe_tile_indices()
    assert len(per_cpe) == 64
    assert all(len(tiles) == 64 for tiles in per_cpe)  # 8x8 xy tiles per slab
    slabs = {t[2] for t in per_cpe[0]}
    assert slabs == {0}  # CPE 0 owns z-slab 0 only


def test_z_partition_fewer_slabs_than_cpes_idles_some():
    plan = TilePlan(patch_extent=(16, 16, 64), tile_shape=(16, 16, 8), num_cpes=64)
    per_cpe = plan.per_cpe_tile_indices()
    busy = [tiles for tiles in per_cpe if tiles]
    assert len(busy) == 8  # 8 slabs -> 8 busy CPEs, 56 idle (paper's imbalance)


def test_per_cpe_assignment_covers_all_tiles():
    plan = make_plan(pe=(32, 32, 512))
    per_cpe = plan.per_cpe_tile_indices()
    flat = [t for tiles in per_cpe for t in tiles]
    assert sorted(flat) == sorted(plan.tiles())


def test_tile_work_geometry():
    plan = make_plan()
    work = plan.tile_work((1, 1, 1))  # interior tile
    assert work.cells == 2048
    assert work.get_bytes == 18 * 18 * 10 * 8
    assert work.put_bytes == 2048 * 8
    # interior tile reads 18x18x10 halo as (18*10)=180 x-runs
    assert work.get_chunks == 180


def test_tile_work_full_x_patch_coalesces():
    """16x16 patches: the ghosted tile spans the whole array xy-extent,
    so the inbound DMA is one fully contiguous block."""
    plan = make_plan(pe=(16, 16, 512), ts=(16, 16, 8))
    work = plan.tile_work((0, 0, 1))
    assert work.get_chunks == 1  # (18,18,10) block of an (18,18,514) array
    # a 32-wide patch only coalesces to planes when x is spanned
    plan32 = make_plan(pe=(32, 16, 512), ts=(32, 16, 8))
    assert plan32.tile_work((0, 0, 1)).get_chunks == 1
    plan_partial = make_plan(pe=(32, 32, 512), ts=(16, 16, 8))
    assert plan_partial.tile_work((0, 0, 1)).get_chunks == 18 * 10


def test_validate_against_ldm():
    make_plan().validate_against_ldm()
    huge = TilePlan(patch_extent=(64, 64, 64), tile_shape=(64, 64, 64))
    with pytest.raises(LDMAllocationError):
        huge.validate_against_ldm()


def test_plan_validation():
    with pytest.raises(ValueError):
        TilePlan(patch_extent=(16, 16, 16), tile_shape=(0, 4, 4))
    with pytest.raises(ValueError):
        TilePlan(patch_extent=(0, 16, 16), tile_shape=(4, 4, 4))
    with pytest.raises(ValueError):
        TilePlan(patch_extent=(16, 16, 16), tile_shape=(4, 4, 4), num_cpes=0)


@settings(deadline=None, max_examples=40)
@given(
    pe=st.tuples(st.integers(4, 48), st.integers(4, 48), st.integers(4, 48)),
    ts=st.tuples(st.integers(1, 20), st.integers(1, 20), st.integers(1, 20)),
)
def test_property_tiles_partition_any_patch(pe, ts):
    """Tiles cover every cell exactly once for arbitrary shapes."""
    plan = TilePlan(patch_extent=pe, tile_shape=ts)
    total = 0
    for t in plan.tiles():
        low, high = plan.tile_region(t)
        vol = 1
        for a in range(3):
            assert 0 <= low[a] < high[a] <= pe[a]
            vol *= high[a] - low[a]
        total += vol
    assert total == pe[0] * pe[1] * pe[2]


@settings(deadline=None, max_examples=40)
@given(
    pe=st.tuples(st.integers(4, 64), st.integers(4, 64), st.integers(8, 128)),
)
def test_property_chosen_tiles_fit_ldm(pe):
    """Whatever the patch, the chosen tile's working set fits 64 KB."""
    shape = choose_tile_shape(pe)
    assert working_set_bytes(shape) <= 64 * 1024
