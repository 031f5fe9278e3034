"""Tests for grid variables (ghosted storage) and the data warehouses."""

import numpy as np
import pytest

from repro.core.grid import Grid
from repro.core.datawarehouse import DataWarehouse
from repro.core.patch import Region
from repro.core.variables import CCVariable
from repro.core.varlabel import VarLabel


U = VarLabel("u")
NORM = VarLabel("norm", vartype="reduction")


def make_patch():
    return Grid(extent=(8, 8, 8), layout=(2, 2, 2)).patch((0, 0, 0))


# -- VarLabel ---------------------------------------------------------------

def test_varlabel_validation():
    with pytest.raises(ValueError):
        VarLabel("")
    with pytest.raises(ValueError):
        VarLabel("x", vartype="nodal")
    assert NORM.is_reduction and not U.is_reduction
    assert str(U) == "u"


# -- CCVariable ---------------------------------------------------------------

def test_variable_shape_includes_ghosts():
    var = CCVariable(U, make_patch(), ghosts=1)
    assert var.data.shape == (6, 6, 6)
    assert var.data.flags.f_contiguous  # x is the fast axis


def test_variable_interior_view_writes_through():
    var = CCVariable(U, make_patch(), ghosts=1)
    var.interior[...] = 7.0
    assert var.data[1:-1, 1:-1, 1:-1].min() == 7.0
    assert var.data[0, 0, 0] == 0.0  # ghosts untouched


def test_variable_region_views_use_global_indices():
    patch = make_patch()  # cells (0..4)^3
    var = CCVariable(U, patch, ghosts=1)
    var.region_view(Region((0, 0, 0), (1, 1, 1)))[...] = 3.0
    assert var.data[1, 1, 1] == 3.0
    # ghost cell at (-1, 0, 0)
    var.region_view(Region((-1, 0, 0), (0, 1, 1)))[...] = 9.0
    assert var.data[0, 1, 1] == 9.0


def test_variable_region_out_of_bounds():
    var = CCVariable(U, make_patch(), ghosts=1)
    with pytest.raises(IndexError):
        var.region_view(Region((-2, 0, 0), (0, 1, 1)))
    with pytest.raises(IndexError):
        var.region_view(Region((0, 0, 0), (6, 1, 1)))


@pytest.mark.parametrize("ghosts", [0, 1, 2])
def test_variable_region_bounds_on_every_axis(ghosts):
    """Interior patch: the ghosted box is exact on each side of each axis,
    and the error names the first offending axis and the ghosted box."""
    patch = Grid(extent=(12, 12, 12), layout=(3, 3, 3)).patch((1, 1, 1))  # cells 4..8
    var = CCVariable(U, patch, ghosts=ghosts)
    lo, hi = 4 - ghosts, 8 + ghosts
    full = var.region_view(Region((lo,) * 3, (hi,) * 3))
    assert full.shape == var.data.shape
    for axis in range(3):
        for low, high in ((lo - 1, hi), (lo, hi + 1)):
            region = Region(
                tuple(low if a == axis else lo for a in range(3)),
                tuple(high if a == axis else hi for a in range(3)),
            )
            expect = (
                f"region {region.low}..{region.high} outside ghosted patch "
                f"{(lo,) * 3}..{(hi,) * 3} on axis {axis}"
            )
            with pytest.raises(IndexError) as err:
                var.region_view(region)
            assert str(err.value) == expect


def test_pack_unpack_roundtrip():
    patch = make_patch()
    src = CCVariable(U, patch, ghosts=1)
    src.interior[...] = np.arange(64, dtype=float).reshape(4, 4, 4)
    region = patch.face_region(0, +1)
    packed = src.get_region(region)
    assert packed.flags.c_contiguous

    dst = CCVariable(U, patch, ghosts=1)
    dst.set_region(region, packed)
    assert np.array_equal(dst.get_region(region), packed)


def test_unpack_shape_mismatch_rejected():
    patch = make_patch()
    var = CCVariable(U, patch, ghosts=1)
    with pytest.raises(ValueError):
        var.set_region(patch.face_region(0, 1), np.zeros((2, 2, 2)))


def test_variable_rejects_reduction_label_and_negative_ghosts():
    with pytest.raises(TypeError):
        CCVariable(NORM, make_patch())
    with pytest.raises(ValueError):
        CCVariable(U, make_patch(), ghosts=-1)


def test_variable_copy_is_deep():
    var = CCVariable(U, make_patch())
    var.interior[...] = 1.0
    dup = var.copy()
    dup.interior[...] = 2.0
    assert var.interior.max() == 1.0


# -- DataWarehouse ----------------------------------------------------------------

def test_dw_put_get_roundtrip():
    patch = make_patch()
    dw = DataWarehouse(step=1)
    var = dw.allocate_and_put(U, patch, ghosts=1)
    assert dw.get(U, patch) is var
    assert dw.exists(U, patch)


def test_dw_single_assignment():
    patch = make_patch()
    dw = DataWarehouse(step=1)
    dw.allocate_and_put(U, patch)
    with pytest.raises(KeyError, match="single-assignment"):
        dw.allocate_and_put(U, patch)


def test_dw_missing_variable_message():
    dw = DataWarehouse(step=3, rank=2)
    with pytest.raises(KeyError, match="not in DW step 3"):
        dw.get(U, make_patch())


def test_dw_scrub():
    patch = make_patch()
    dw = DataWarehouse(step=1)
    dw.allocate_and_put(U, patch)
    dw.scrub(U, patch)
    assert not dw.exists(U, patch)
    with pytest.raises(KeyError, match="double-scrub"):
        dw.scrub(U, patch)


def test_dw_get_after_scrub_names_the_bug():
    patch = make_patch()
    dw = DataWarehouse(step=2, rank=1)
    dw.allocate_and_put(U, patch)
    dw.scrub(U, patch)
    with pytest.raises(KeyError, match="use-after-scrub"):
        dw.get(U, patch)


def test_dw_put_after_scrub_rejected():
    patch = make_patch()
    dw = DataWarehouse(step=1)
    dw.allocate_and_put(U, patch)
    dw.scrub(U, patch)
    with pytest.raises(KeyError, match="single-assignment"):
        dw.allocate_and_put(U, patch)


def test_dw_observer_sees_access_bugs():
    class Audit:
        def __init__(self):
            self.events = []

        def on_dw_double_put(self, dw, key):
            self.events.append(("double-put", key))

        def on_dw_bad_get(self, dw, key, scrubbed):
            self.events.append(("bad-get", key, scrubbed))

        def on_dw_double_scrub(self, dw, key):
            self.events.append(("double-scrub", key))

    patch = make_patch()
    audit = Audit()
    dw = DataWarehouse(step=1, observer=audit)
    key = ("u", patch.patch_id)
    with pytest.raises(KeyError):
        dw.get(U, patch)  # read-before-put
    dw.allocate_and_put(U, patch)
    with pytest.raises(KeyError):
        dw.allocate_and_put(U, patch)  # double-put
    dw.scrub(U, patch)
    with pytest.raises(KeyError):
        dw.get(U, patch)  # use-after-scrub
    with pytest.raises(KeyError):
        dw.scrub(U, patch)  # double-scrub
    assert audit.events == [
        ("bad-get", key, False),
        ("double-put", key),
        ("bad-get", key, True),
        ("double-scrub", key),
    ]


def test_dw_reductions():
    dw = DataWarehouse(step=1)
    dw.put_reduction(NORM, 4.5)
    assert dw.get_reduction(NORM) == 4.5
    dw.put_reduction(NORM, 5.0)  # reductions may be overwritten
    assert dw.get_reduction(NORM) == 5.0
    with pytest.raises(TypeError):
        dw.put_reduction(U, 1.0)
    with pytest.raises(TypeError):
        dw.get_reduction(U)
    with pytest.raises(KeyError):
        dw.get_reduction(VarLabel("other", vartype="reduction"))


def test_dw_inventory_deterministic():
    g = Grid(extent=(8, 8, 8), layout=(2, 2, 2))
    dw = DataWarehouse(step=0)
    for p in reversed(g.patches()):
        dw.allocate_and_put(U, p)
    ids = [v.patch.patch_id for v in dw.grid_variables()]
    assert ids == sorted(ids)
    assert len(dw) == 8
