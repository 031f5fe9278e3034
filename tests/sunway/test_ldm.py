"""Tests for the 64 KB LDM allocator, including hypothesis invariants."""

import pytest
from hypothesis import given, strategies as st

from repro.sunway.ldm import LDM, LDMAllocationError


def test_capacity_defaults_to_64k():
    assert LDM().capacity == 65536


def test_alloc_and_free_accounting():
    ldm = LDM(1000)
    ldm.alloc("a", 400)
    assert ldm.used == 400 and ldm.free == 600
    ldm.alloc("b", 600)
    assert ldm.used == 1000 and ldm.free == 0
    ldm.release("a")
    assert ldm.used == 600


def test_overflow_raises():
    ldm = LDM(100)
    ldm.alloc("a", 60)
    with pytest.raises(LDMAllocationError, match="overflow"):
        ldm.alloc("b", 41)
    # exact fit is fine
    ldm.alloc("b", 40)


def test_duplicate_name_rejected():
    ldm = LDM(100)
    ldm.alloc("buf", 10)
    with pytest.raises(ValueError):
        ldm.alloc("buf", 10)


def test_nonpositive_sizes_rejected():
    ldm = LDM(100)
    with pytest.raises(ValueError):
        ldm.alloc("z", 0)
    with pytest.raises(ValueError):
        ldm.alloc("z", -5)
    with pytest.raises(ValueError):
        LDM(0)


def test_release_unknown_name():
    ldm = LDM(100)
    with pytest.raises(KeyError):
        ldm.release("ghost")


def test_alloc_array_f64():
    ldm = LDM(64 * 1024)
    blk = ldm.alloc_array("tile", (16, 16, 8))
    assert blk.nbytes == 16 * 16 * 8 * 8
    with pytest.raises(ValueError):
        ldm.alloc_array("bad", (4, 0, 2))


def test_burgers_tile_working_set_fits_as_in_paper():
    """Sec. VI-A: a 16x16x8 tile with u (ghosted) and u_new is ~41.3 KB."""
    ldm = LDM()
    ldm.alloc_array("u", (18, 18, 10))  # one ghost layer
    ldm.alloc_array("u_new", (16, 16, 8))
    assert ldm.used == (18 * 18 * 10 + 16 * 16 * 8) * 8
    assert ldm.used / 1024 == pytest.approx(41.3, abs=0.2)
    assert ldm.free > 0


def test_fits_probe():
    ldm = LDM(100)
    ldm.alloc("a", 90)
    assert ldm.fits(10)
    assert not ldm.fits(11)


def test_blocks_listing_ordered_by_offset():
    ldm = LDM(1000)
    ldm.alloc("x", 100)
    ldm.alloc("y", 200)
    names = [b.name for b in ldm.blocks()]
    assert names == ["x", "y"]
    assert ldm.blocks()[1].offset == 100


@given(st.lists(st.integers(min_value=1, max_value=8000), max_size=30))
def test_property_never_overcommits(sizes):
    """Invariant: used <= capacity always; overflow raises, never corrupts."""
    ldm = LDM(64 * 1024)
    for i, size in enumerate(sizes):
        try:
            ldm.alloc(f"b{i}", size)
        except LDMAllocationError:
            assert ldm.used + size > ldm.capacity
        assert 0 <= ldm.used <= ldm.capacity
        assert ldm.used + ldm.free == ldm.capacity


@given(
    st.lists(
        st.tuples(st.sampled_from(["alloc", "release"]), st.integers(0, 9), st.integers(1, 9000)),
        max_size=60,
    )
)
def test_property_alloc_release_conservation(ops):
    """Interleaved alloc/release keeps exact byte accounting."""
    ldm = LDM(64 * 1024)
    live: dict[str, int] = {}
    for op, slot, size in ops:
        name = f"s{slot}"
        if op == "alloc" and name not in live:
            try:
                ldm.alloc(name, size)
                live[name] = size
            except LDMAllocationError:
                pass
        elif op == "release" and name in live:
            ldm.release(name)
            del live[name]
        assert ldm.used == sum(live.values())
