"""Tests for grid, patches, regions and neighbour topology."""

import pytest
from hypothesis import given, strategies as st

from repro.core.grid import Grid
from repro.core.patch import Patch, Region, FACES
from tests.strategies import grids


# -- Region -------------------------------------------------------------------

def test_region_extent_and_cells():
    r = Region((0, 0, 0), (4, 5, 6))
    assert r.extent == (4, 5, 6)
    assert r.num_cells == 120
    assert not r.empty


def test_region_inverted_rejected():
    with pytest.raises(ValueError):
        Region((0, 0, 5), (1, 1, 4))


def test_region_intersect():
    a = Region((0, 0, 0), (4, 4, 4))
    b = Region((2, 2, 2), (8, 8, 8))
    c = a.intersect(b)
    assert c.low == (2, 2, 2) and c.high == (4, 4, 4)
    # disjoint -> empty
    d = a.intersect(Region((10, 10, 10), (12, 12, 12)))
    assert d.empty and d.num_cells == 0


def test_region_grown():
    r = Region((2, 2, 2), (4, 4, 4)).grown(1)
    assert r.low == (1, 1, 1) and r.high == (5, 5, 5)
    with pytest.raises(ValueError):
        Region((0, 0, 0), (1, 1, 1)).grown(-1)


def test_region_contains_and_cells_iter():
    r = Region((0, 0, 0), (2, 2, 1))
    cells = set(r.cells())
    assert (1, 1, 0) in cells
    assert (2, 0, 0) not in cells
    assert len(cells) == 4


# -- Grid geometry ----------------------------------------------------------------

def test_grid_spacing_and_centers():
    g = Grid(extent=(10, 10, 10))
    assert g.spacing == (0.1, 0.1, 0.1)
    assert g.cell_center((0, 0, 0)) == pytest.approx((0.05, 0.05, 0.05))
    assert g.cell_center((9, 9, 9)) == pytest.approx((0.95, 0.95, 0.95))


def test_grid_layout_must_divide():
    with pytest.raises(ValueError):
        Grid(extent=(10, 10, 10), layout=(3, 1, 1))
    with pytest.raises(ValueError):
        Grid(extent=(0, 4, 4))
    with pytest.raises(ValueError):
        Grid(extent=(4, 4, 4), domain_high=(0.0, 1.0, 1.0))


def test_paper_grid_dimensions():
    """Table III largest problem: 1024^3 grid, 8x8x2 layout, 128 patches."""
    g = Grid(extent=(1024, 1024, 1024), layout=(8, 8, 2))
    assert g.num_patches == 128
    assert g.patch_extent == (128, 128, 512)
    assert g.num_cells == 1024**3


def test_patch_ids_cover_all_uniquely():
    g = Grid(extent=(8, 8, 8), layout=(2, 2, 2))
    ids = [p.patch_id for p in g.patches()]
    assert ids == list(range(8))


def test_patch_regions_partition_grid():
    g = Grid(extent=(8, 12, 4), layout=(2, 3, 1))
    total = sum(p.num_cells for p in g.patches())
    assert total == g.num_cells
    # disjointness: pairwise empty intersections
    ps = g.patches()
    for i, a in enumerate(ps):
        for b in ps[i + 1:]:
            assert a.region.intersect(b.region).empty


def test_neighbors_and_boundaries():
    g = Grid(extent=(8, 8, 8), layout=(2, 2, 2))
    corner = g.patch((0, 0, 0))
    assert g.neighbor(corner, 0, -1) is None
    nb = g.neighbor(corner, 0, +1)
    assert nb is not None and nb.index == (1, 0, 0)
    assert len(g.face_neighbors(corner)) == 3
    assert len(g.boundary_faces(corner)) == 3


def test_face_and_ghost_regions_are_adjacent():
    g = Grid(extent=(8, 8, 8), layout=(2, 1, 1))
    left, right = g.patch((0, 0, 0)), g.patch((1, 0, 0))
    # right patch's low-x ghost region == left patch's high-x face region
    assert right.ghost_region(0, -1) == left.face_region(0, +1)
    assert left.ghost_region(0, +1) == right.face_region(0, -1)


def test_memory_bytes_matches_table3():
    """Table III Mem column: 2 fields x grid cells x 8 B, binary units."""
    g = Grid(extent=(128, 128, 1024), layout=(8, 8, 2))
    assert g.memory_bytes(fields=2, ghosts=0) == 256 * 1024**2
    g = Grid(extent=(1024, 1024, 1024), layout=(8, 8, 2))
    assert g.memory_bytes(fields=2, ghosts=0) == 16 * 1024**3


@given(
    st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
    st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
)
def test_property_patch_neighbor_symmetry(mult, layout):
    """If q is p's (+axis) neighbour then p is q's (-axis) neighbour."""
    extent = tuple(m * l * 2 for m, l in zip(mult, layout))
    g = Grid(extent=extent, layout=layout)
    for p in g.patches():
        for axis, side in FACES:
            q = g.neighbor(p, axis, side)
            if q is not None:
                assert g.neighbor(q, axis, -side).patch_id == p.patch_id


@given(
    low=st.tuples(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20)),
    size=st.tuples(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12)),
    other_low=st.tuples(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20)),
    other_size=st.tuples(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12)),
)
def test_property_region_intersection_laws(low, size, other_low, other_size):
    """Intersection is commutative, contained in both, and idempotent."""
    a = Region(low, tuple(l + s for l, s in zip(low, size)))
    b = Region(other_low, tuple(l + s for l, s in zip(other_low, other_size)))
    ab, ba = a.intersect(b), b.intersect(a)
    assert ab.num_cells == ba.num_cells
    if not ab.empty:
        assert ab.low == ba.low and ab.high == ba.high
        for axis in range(3):
            assert a.low[axis] <= ab.low[axis] and ab.high[axis] <= a.high[axis]
            assert b.low[axis] <= ab.low[axis] and ab.high[axis] <= b.high[axis]
        again = ab.intersect(a)
        assert again.low == ab.low and again.high == ab.high


@given(
    ghosts=st.integers(0, 3),
    size=st.tuples(st.integers(1, 10), st.integers(1, 10), st.integers(1, 10)),
)
def test_property_grown_region_cell_count(ghosts, size):
    r = Region((0, 0, 0), size)
    g = r.grown(ghosts)
    expect = 1
    for s in size:
        expect *= s + 2 * ghosts
    assert g.num_cells == expect


# -- geometry tables built once per grid ------------------------------------------

def _scratch_patch(g: Grid, index) -> Patch:
    """The patch at ``index``, built from first principles."""
    ex = g.patch_extent
    low = tuple(index[a] * ex[a] for a in range(3))
    high = tuple(low[a] + ex[a] for a in range(3))
    px, py, _ = g.layout
    pid = (index[2] * py + index[1]) * px + index[0]
    return Patch(pid, tuple(index), Region(low, high))


def _scratch_neighbor(g: Grid, p: Patch, axis: int, side: int):
    idx = list(p.index)
    idx[axis] += side
    if not 0 <= idx[axis] < g.layout[axis]:
        return None
    return _scratch_patch(g, idx)


@given(grids(max_per_axis=3))
def test_property_cached_geometry_equals_scratch(g):
    """Every cached accessor matches geometry built from scratch."""
    px, py, pz = g.layout
    scratch = [
        _scratch_patch(g, (ix, iy, iz))
        for iz in range(pz)
        for iy in range(py)
        for ix in range(px)
    ]
    assert g.patches() == scratch
    for want in scratch:
        got = g.patch(want.index)
        assert got == want and got.extent == want.extent
        assert got.num_cells == want.num_cells
        nbs = [(a, s, _scratch_neighbor(g, want, a, s)) for a, s in FACES]
        for axis, side, nb in nbs:
            assert g.neighbor(want, axis, side) == nb
        assert g.face_neighbors(want) == [(a, s, nb) for a, s, nb in nbs if nb is not None]
        assert g.boundary_faces(want) == [(a, s) for a, s, nb in nbs if nb is None]


def test_patch_list_is_a_copy():
    g = Grid(extent=(8, 8, 8), layout=(2, 2, 2))
    first = g.patches()
    expect = list(first)
    first.reverse()
    first.pop()
    first.append("junk")
    assert g.patches() == expect
    assert g.patches() is not g.patches()
    faces = g.boundary_faces(g.patch((0, 0, 0)))
    faces.clear()
    assert len(g.boundary_faces(g.patch((0, 0, 0)))) == 3
    nbs = g.face_neighbors(g.patch((0, 0, 0)))
    nbs.clear()
    assert len(g.face_neighbors(g.patch((0, 0, 0)))) == 3


def test_patch_keeps_bounds_check_and_caches_objects():
    g = Grid(extent=(8, 8, 8), layout=(2, 2, 2))
    with pytest.raises(IndexError):
        g.patch((2, 0, 0))
    with pytest.raises(IndexError):
        g.patch((0, -1, 0))
    assert g.patch((1, 1, 1)) is g.patches()[7]
    with pytest.raises(ValueError, match="side"):
        g.neighbor(g.patch((0, 0, 0)), 0, 2)


def test_grid_equality_ignores_tables():
    a = Grid(extent=(8, 8, 8), layout=(2, 2, 2))
    b = Grid(extent=(8, 8, 8), layout=(2, 2, 2))
    assert a == b and hash(a) == hash(b)
    assert "_patches" not in repr(a)


def test_region_stores_extent_and_cells():
    r = Region((1, 2, 3), (4, 6, 9))
    assert r.extent == (3, 4, 6) and r.num_cells == 72
    # derived fields stay out of equality and repr
    assert r == Region((1, 2, 3), (4, 6, 9))
    assert repr(r) == "Region(low=(1, 2, 3), high=(4, 6, 9))"
