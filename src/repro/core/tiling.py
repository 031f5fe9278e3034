"""LDM-constrained tiling of patches (after TiDA, paper Sec. V-B/VI-A).

"When a kernel is scheduled to run on the CPEs, the patch is further
subdivided into 'tiles' ... defined so that the working memory of the
kernel fits in the 64KB LDM.  The tiles are then assigned evenly to the
CPEs" — by "naturally partitioning the blocks in the z dimension"
(Sec. V-D).

This module provides

* :func:`choose_tile_shape` — the tile-size selection of Sec. VI-A,
  reproducing the paper's 16x16x8 choice (41.3 KB working set) for the
  Burgers kernel on every patch in the evaluation suite;
* :class:`TilePlan` — a patch's tile decomposition plus the z-partition
  assignment of tiles to CPEs, yielding the per-CPE
  :class:`~repro.sunway.corerates.TileWork` lists the cost model and the
  CPE tile scheduler consume;
* :func:`contiguous_chunks` — DMA descriptor counts from tile geometry
  (x is the contiguous axis; tiles spanning the whole patch row coalesce
  into plane- or block-sized transfers).
"""

from __future__ import annotations

import dataclasses

from repro.sunway.corerates import TileWork
from repro.sunway.ldm import LDM, LDMAllocationError


def contiguous_chunks(region_extent: tuple[int, int, int], array_extent: tuple[int, int, int]) -> int:
    """Number of contiguous runs a sub-box occupies in an x-contiguous array.

    ``region_extent`` is the transferred box, ``array_extent`` the full
    (ghosted) patch array.  Full-x regions coalesce rows into planes;
    full-xy regions coalesce into a single block.
    """
    rx, ry, rz = region_extent
    ax, ay, az = array_extent
    if rx > ax or ry > ay or rz > az:
        raise ValueError(f"region {region_extent} exceeds array {array_extent}")
    if min(rx, ry, rz) == 0:
        return 0
    if rx == ax:
        if ry == ay:
            return 1
        return rz
    return ry * rz


def working_set_bytes(
    tile_shape: tuple[int, int, int],
    ghosts: int = 1,
    fields_in: int = 1,
    fields_out: int = 1,
    itemsize: int = 8,
) -> int:
    """LDM bytes needed for one tile: ghosted inputs + interior outputs."""
    tx, ty, tz = tile_shape
    halo = (tx + 2 * ghosts) * (ty + 2 * ghosts) * (tz + 2 * ghosts)
    interior = tx * ty * tz
    return (fields_in * halo + fields_out * interior) * itemsize


def choose_tile_shape(
    patch_extent: tuple[int, int, int],
    ldm_bytes: int = 64 * 1024,
    ghosts: int = 1,
    fields_in: int = 1,
    fields_out: int = 1,
    num_cpes: int = 64,
    itemsize: int = 8,
) -> tuple[int, int, int]:
    """Pick the tile size for a kernel on a patch (paper Sec. VI-A).

    Candidates are power-of-two boxes dividing the patch.  Selection
    order: (1) the tile must fit the LDM (checked against a real
    :class:`~repro.sunway.ldm.LDM` allocator); (2) prefer shapes whose
    z-slab count divides evenly over the CPEs ("larger and regular tiles
    ... keep the ratio of ghost cells low" while the z-partition stays
    balanced); (3) maximize interior cells; (4) minimize halo cells;
    (5) prefer wide x for DMA contiguity and SIMD.

    For the Burgers working set (1 ghosted input + 1 output) this yields
    16x16x8 = 41.3 KB on every patch of the paper's Table III.
    """

    def pow2_divisors(n: int) -> list[int]:
        out = []
        d = 1
        while d <= n:
            if n % d == 0:
                out.append(d)
            d *= 2
        return out

    best = None
    best_key = None
    px, py, pz = patch_extent
    for tx in pow2_divisors(px):
        for ty in pow2_divisors(py):
            for tz in pow2_divisors(pz):
                need = working_set_bytes((tx, ty, tz), ghosts, fields_in, fields_out, itemsize)
                ldm = LDM(ldm_bytes)
                try:
                    ldm.alloc("working-set", need)
                except LDMAllocationError:
                    continue
                slabs = pz // tz
                balanced = 1 if slabs % num_cpes == 0 or num_cpes % slabs == 0 else 0
                cells = tx * ty * tz
                halo = (tx + 2 * ghosts) * (ty + 2 * ghosts) * (tz + 2 * ghosts) - cells
                # Final tie-breaks: wide x (DMA contiguity + SIMD), then
                # wide y over deep z — shallow-z tiles mean more z-slabs,
                # i.e. a finer-grained CPE partition (the paper's 16x16x8).
                key = (balanced, cells, -halo, tx, ty)
                if best_key is None or key > best_key:
                    best_key = key
                    best = (tx, ty, tz)
    if best is None:
        raise LDMAllocationError(
            f"no tile of patch {patch_extent} fits {ldm_bytes} B of LDM "
            f"({fields_in} halo'd inputs + {fields_out} outputs)"
        )
    return best


@dataclasses.dataclass(frozen=True)
class TilePlan:
    """The tile decomposition of one patch for one kernel."""

    patch_extent: tuple[int, int, int]
    tile_shape: tuple[int, int, int]
    ghosts: int = 1
    fields_in: int = 1
    fields_out: int = 1
    num_cpes: int = 64
    itemsize: int = 8

    def __post_init__(self) -> None:
        for axis in range(3):
            if self.tile_shape[axis] < 1:
                raise ValueError(f"tile shape must be positive, got {self.tile_shape}")
            if self.patch_extent[axis] < 1:
                raise ValueError(f"patch extent must be positive, got {self.patch_extent}")
        if self.num_cpes < 1:
            raise ValueError(f"num_cpes must be >= 1, got {self.num_cpes}")

    # -- decomposition ---------------------------------------------------------
    @property
    def tile_counts(self) -> tuple[int, int, int]:
        """Tiles per axis (edge tiles may be smaller)."""
        return tuple(  # type: ignore[return-value]
            -(-p // t) for p, t in zip(self.patch_extent, self.tile_shape)
        )

    def tile_region(self, tile_index: tuple[int, int, int]) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
        """Patch-local (low, high) of one tile, clipped to the patch."""
        low = []
        high = []
        for axis in range(3):
            lo = tile_index[axis] * self.tile_shape[axis]
            hi = min(lo + self.tile_shape[axis], self.patch_extent[axis])
            if lo >= self.patch_extent[axis]:
                raise IndexError(f"tile index {tile_index} outside patch")
            low.append(lo)
            high.append(hi)
        return tuple(low), tuple(high)  # type: ignore[return-value]

    def tiles(self) -> list[tuple[int, int, int]]:
        """All tile indices, x-fastest order."""
        cx, cy, cz = self.tile_counts
        return [(ix, iy, iz) for iz in range(cz) for iy in range(cy) for ix in range(cx)]

    # -- CPE assignment (z-partition, paper Sec. V-D) -------------------------------
    def cpe_of_slab(self, slab: int) -> int:
        """Which CPE owns z-slab ``slab`` (contiguous block partition)."""
        slabs = self.tile_counts[2]
        if not 0 <= slab < slabs:
            raise IndexError(f"slab {slab} out of range [0, {slabs})")
        if slabs >= self.num_cpes:
            # contiguous blocks of slabs per CPE
            per = slabs / self.num_cpes
            return min(int(slab / per), self.num_cpes - 1)
        return slab  # fewer slabs than CPEs: one slab per CPE, rest idle

    def per_cpe_tile_indices(self) -> list[list[tuple[int, int, int]]]:
        """Tile indices assigned to each CPE."""
        out: list[list[tuple[int, int, int]]] = [[] for _ in range(self.num_cpes)]
        for tile in self.tiles():
            out[self.cpe_of_slab(tile[2])].append(tile)
        return out

    # -- DMA work ------------------------------------------------------------------
    def _array_extent(self) -> tuple[int, int, int]:
        g = self.ghosts
        return tuple(p + 2 * g for p in self.patch_extent)  # type: ignore[return-value]

    def tile_work(self, tile_index: tuple[int, int, int]) -> TileWork:
        """The DMA/compute description of one tile."""
        g = self.ghosts
        low, high = self.tile_region(tile_index)
        shape = tuple(h - l for l, h in zip(low, high))
        halo_shape = tuple(s + 2 * g for s in shape)
        arr = self._array_extent()
        cells = shape[0] * shape[1] * shape[2]
        halo_cells = halo_shape[0] * halo_shape[1] * halo_shape[2]
        get_chunks = contiguous_chunks(halo_shape, arr) * self.fields_in  # type: ignore[arg-type]
        put_chunks = contiguous_chunks(shape, arr) * self.fields_out  # type: ignore[arg-type]
        return TileWork(
            cells=cells,
            get_bytes=halo_cells * self.itemsize * self.fields_in,
            get_chunks=max(get_chunks, 1),
            put_bytes=cells * self.itemsize * self.fields_out,
            put_chunks=max(put_chunks, 1),
        )

    def per_cpe_work(self) -> list[list[TileWork]]:
        """Per-CPE :class:`TileWork` lists for the cluster cost model.

        Each CPE's list follows :meth:`per_cpe_tile_indices`.  Tiles of one
        shape share one :class:`TileWork`: a plan has at most 8 shapes
        (interior or clipped edge along each axis).
        """
        ex, ey, ez = (
            [min(t, p - i * t) for i in range(n)]
            for p, t, n in zip(self.patch_extent, self.tile_shape, self.tile_counts)
        )
        works: dict[tuple[int, int, int], TileWork] = {}
        out = []
        for tiles in self.per_cpe_tile_indices():
            row = []
            for tile in tiles:
                shape = (ex[tile[0]], ey[tile[1]], ez[tile[2]])
                work = works.get(shape)
                if work is None:
                    work = works[shape] = self.tile_work(tile)
                row.append(work)
            out.append(row)
        return out

    def ldm_working_set(self) -> int:
        """Worst-case LDM bytes over all tiles; must fit the LDM."""
        return working_set_bytes(
            self.tile_shape, self.ghosts, self.fields_in, self.fields_out, self.itemsize
        )

    def validate_against_ldm(self, ldm_bytes: int = 64 * 1024) -> None:
        """Raise :class:`LDMAllocationError` if the working set overflows."""
        ldm = LDM(ldm_bytes)
        ldm.alloc("working-set", self.ldm_working_set())
