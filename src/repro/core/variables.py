"""Grid variables: per-patch cell-centred arrays with ghost layers.

A :class:`CCVariable` owns the storage for one label on one patch,
including ``ghosts`` layers of halo cells on every side.  Storage is
Fortran-ordered with axes ``(x, y, z)`` so the x direction is contiguous
in memory — matching the paper's Fortran kernels, its x-direction SIMD
vectorization and the DMA chunking geometry of tiles.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.core.patch import Patch, Region
from repro.core.varlabel import VarLabel


@functools.lru_cache(maxsize=1024)
def _slices(x0: int, x1: int, y0: int, y1: int, z0: int, z1: int) -> tuple[slice, slice, slice]:
    """One shared slice tuple per distinct bounds: patches of one extent
    give most regions equal local slices, and slices are immutable."""
    return slice(x0, x1), slice(y0, y1), slice(z0, z1)


class CCVariable:
    """Cell-centred data of one label on one patch (plus ghost halo).

    Indexing helpers translate *global* cell indices into the local
    ghosted array, so kernels and ghost exchange never do offset
    arithmetic by hand.
    """

    def __init__(self, label: VarLabel, patch: Patch, ghosts: int = 1, fill: float = 0.0):
        if ghosts < 0:
            raise ValueError(f"ghosts must be >= 0, got {ghosts}")
        if label.is_reduction:
            raise TypeError(f"reduction label {label.name!r} cannot back a grid variable")
        self.label = label
        self.patch = patch
        self.ghosts = ghosts
        shape = tuple(e + 2 * ghosts for e in patch.extent)
        self.data = np.full(shape, fill, dtype=np.float64, order="F")
        #: Global index of ``data[0, 0, 0]`` (the ghosted low corner).
        self._origin = tuple(l - ghosts for l in patch.low)

    # -- geometry -------------------------------------------------------------
    @property
    def ghosted_region(self) -> Region:
        """The global-index region covered by the array, halo included."""
        return self.patch.region.grown(self.ghosts)

    def local_slices(self, region: Region) -> tuple[slice, slice, slice]:
        """The slices of a global-index region in :attr:`data`, bounds-checked.

        The ghost data path compiles these once per slab
        (:class:`~repro.core.schedulers.commengine.SlabTable`) and hands
        them back as ``slices=`` instead of rebuilding them per call.
        """
        (ox, oy, oz), (lx, ly, lz), (hx, hy, hz) = self._origin, region.low, region.high
        lo = (lx - ox, ly - oy, lz - oz)
        hi = (hx - ox, hy - oy, hz - oz)
        nx, ny, nz = self.data.shape
        if lo[0] < 0 or lo[1] < 0 or lo[2] < 0 or hi[0] > nx or hi[1] > ny or hi[2] > nz:
            axis = next(a for a in range(3) if lo[a] < 0 or hi[a] > self.data.shape[a])
            gr = self.ghosted_region
            raise IndexError(
                f"region {region.low}..{region.high} outside ghosted patch "
                f"{gr.low}..{gr.high} on axis {axis}"
            )
        return _slices(lo[0], hi[0], lo[1], hi[1], lo[2], hi[2])

    # -- access ----------------------------------------------------------------
    @property
    def interior(self) -> np.ndarray:
        """Writable view of the patch's interior cells (no halo)."""
        g = self.ghosts
        return self.data[g:-g, g:-g, g:-g] if g else self.data[...]

    def region_view(self, region: Region) -> np.ndarray:
        """Writable view of a global-index region (must lie in the array)."""
        return self.data[self.local_slices(region)]

    def get_region(self, region: Region, slices=None) -> np.ndarray:
        """A packed (contiguous) copy of a region — MPI pack.

        ``slices``, when given, are the region's :meth:`local_slices`.
        """
        view = self.data[slices] if slices is not None else self.region_view(region)
        return np.ascontiguousarray(view)

    def set_region(self, region: Region, values: np.ndarray, slices=None) -> None:
        """Write packed data into a region — MPI unpack.

        ``slices``, when given, are the region's :meth:`local_slices`.
        """
        view = self.data[slices] if slices is not None else self.region_view(region)
        if values.shape != view.shape:
            raise ValueError(f"unpack shape {values.shape} != region shape {view.shape}")
        view[...] = values

    def copy(self) -> "CCVariable":
        """Deep copy (used by serial reference runs in tests)."""
        out = CCVariable(self.label, self.patch, self.ghosts)
        out.data[...] = self.data
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CCVariable {self.label.name} patch={self.patch.patch_id} g={self.ghosts}>"
