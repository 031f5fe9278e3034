"""The structured grid and its patch layout.

A :class:`Grid` is a single-level regular Cartesian mesh over a physical
box, partitioned into equally-sized patches ("the grid is partitioned
into equally-sized patches for parallelization", paper Sec. VII-A; the
evaluation fixes an 8x8x2 patch layout).  Multi-level AMR, which full
Uintah supports, is outside the paper's experiments and therefore out of
scope here (see DESIGN.md).
"""

from __future__ import annotations

import dataclasses
import functools

from repro.core.patch import Patch, Region, FACES


@dataclasses.dataclass(frozen=True)
class Grid:
    """A regular grid of ``extent`` cells split into ``layout`` patches.

    Parameters
    ----------
    extent:
        Global cells per axis ``(Nx, Ny, Nz)``.
    layout:
        Patches per axis ``(Px, Py, Pz)``; must divide ``extent``.
    domain_low / domain_high:
        Physical bounds of the box; cell spacing follows.
    """

    extent: tuple[int, int, int]
    layout: tuple[int, int, int] = (1, 1, 1)
    domain_low: tuple[float, float, float] = (0.0, 0.0, 0.0)
    domain_high: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self) -> None:
        for axis in range(3):
            n, p = self.extent[axis], self.layout[axis]
            if n < 1 or p < 1:
                raise ValueError(f"extent/layout must be positive, got {self.extent}/{self.layout}")
            if n % p:
                raise ValueError(
                    f"layout {self.layout} does not divide extent {self.extent} on axis {axis}"
                )
            if self.domain_high[axis] <= self.domain_low[axis]:
                raise ValueError("domain_high must exceed domain_low")
        self._build_tables()

    def _build_tables(self) -> None:
        """Build the patch list and per-patch face tables, once per grid.

        The grid is immutable, so its geometry is too: every accessor
        below reads these tables instead of building ``Patch``/``Region``
        objects per call.  They are plain attributes, not dataclass
        fields, so equality, hashing and ``repr`` see only the
        constructor arguments.
        """
        px, py, pz = self.layout
        ex = self.patch_extent
        patches = []
        for iz in range(pz):
            for iy in range(py):
                for ix in range(px):
                    low = (ix * ex[0], iy * ex[1], iz * ex[2])
                    high = (low[0] + ex[0], low[1] + ex[1], low[2] + ex[2])
                    patches.append(Patch(len(patches), (ix, iy, iz), Region(low, high)))
        # per patch, one entry per FACES slot: the neighbour or None
        neighbors: list[tuple[Patch | None, ...]] = []
        for p in patches:
            row = []
            for axis, side in FACES:
                idx = list(p.index)
                idx[axis] += side
                if 0 <= idx[axis] < self.layout[axis]:
                    ix, iy, iz = idx
                    row.append(patches[(iz * py + iy) * px + ix])
                else:
                    row.append(None)
            neighbors.append(tuple(row))
        set_ = object.__setattr__  # frozen dataclass
        set_(self, "_patches", tuple(patches))
        set_(self, "_neighbors", tuple(neighbors))
        set_(
            self,
            "_face_neighbors",
            tuple(
                tuple((axis, side, nb) for (axis, side), nb in zip(FACES, row) if nb is not None)
                for row in neighbors
            ),
        )
        set_(
            self,
            "_boundary_faces",
            tuple(tuple(face for face, nb in zip(FACES, row) if nb is None) for row in neighbors),
        )

    def __hash__(self) -> int:
        # the geometry memos (``lru_cache`` on phi tables and dividers)
        # hash the grid on every lookup; the dataclass hash would rebuild
        # the field tuple each time.  Equality stays field-based.
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.extent, self.layout, self.domain_low, self.domain_high))

    # -- geometry -------------------------------------------------------------
    @property
    def spacing(self) -> tuple[float, float, float]:
        """Cell width per axis (dx, dy, dz)."""
        return tuple(  # type: ignore[return-value]
            (hi - lo) / n for lo, hi, n in zip(self.domain_low, self.domain_high, self.extent)
        )

    @property
    def patch_extent(self) -> tuple[int, int, int]:
        """Cells per patch per axis."""
        return tuple(n // p for n, p in zip(self.extent, self.layout))  # type: ignore[return-value]

    @property
    def num_cells(self) -> int:
        """Total cells in the grid."""
        nx, ny, nz = self.extent
        return nx * ny * nz

    @property
    def num_patches(self) -> int:
        """Total patches in the layout."""
        px, py, pz = self.layout
        return px * py * pz

    def check_ranks(self, num_ranks: int) -> None:
        """Raise ``ValueError`` unless every one of ``num_ranks`` ranks can own a patch."""
        if num_ranks > self.num_patches:
            raise ValueError(
                f"{num_ranks} ranks but only {self.num_patches} patches: the paper "
                "schedules at least one patch per CG"
            )

    def cell_center(self, cell: tuple[int, int, int]) -> tuple[float, float, float]:
        """Physical coordinates of a cell's centroid."""
        dx = self.spacing
        return tuple(  # type: ignore[return-value]
            self.domain_low[a] + (cell[a] + 0.5) * dx[a] for a in range(3)
        )

    # -- patches ------------------------------------------------------------------
    def patch_index_to_id(self, index: tuple[int, int, int]) -> int:
        """Serial patch id from layout coordinates (x-major)."""
        px, py, pz = self.layout
        ix, iy, iz = index
        if not (0 <= ix < px and 0 <= iy < py and 0 <= iz < pz):
            raise IndexError(f"patch index {index} outside layout {self.layout}")
        return (iz * py + iy) * px + ix

    def patch(self, index: tuple[int, int, int]) -> Patch:
        """The patch at layout coordinates ``index``."""
        return self._patches[self.patch_index_to_id(index)]

    def patches(self) -> list[Patch]:
        """All patches, ordered by patch id (a fresh list each call)."""
        return list(self._patches)

    def neighbor(self, patch: Patch, axis: int, side: int) -> Patch | None:
        """The face neighbour of ``patch``, or None at the domain boundary.

        ``side`` is -1 (low face) or +1 (high face).
        """
        if side not in (-1, 1):
            raise ValueError(f"side must be -1 or +1, got {side!r}")
        return self._neighbors[patch.patch_id][2 * axis + (side > 0)]

    def face_neighbors(self, patch: Patch) -> list[tuple[int, int, Patch]]:
        """All existing face neighbours as ``(axis, side, neighbor)``."""
        return list(self._face_neighbors[patch.patch_id])

    def boundary_faces(self, patch: Patch) -> list[tuple[int, int]]:
        """Faces of ``patch`` lying on the physical domain boundary."""
        return list(self._boundary_faces[patch.patch_id])

    def boundary_ghost_regions(self, patch: Patch) -> tuple[Region, ...]:
        """The one-cell ghost slab outside each of :meth:`boundary_faces`,
        in the same order: where boundary conditions are written."""
        return self._boundary_ghost_regions[patch.patch_id]

    @functools.cached_property
    def _boundary_ghost_regions(self) -> tuple[tuple[Region, ...], ...]:
        # built on first use (real-mode boundary conditions), so model
        # runs and grid construction never pay for it
        return tuple(
            tuple(p.ghost_region(axis, side) for axis, side in faces)
            for p, faces in zip(self._patches, self._boundary_faces)
        )

    # -- bookkeeping used by the harness ------------------------------------------
    def memory_bytes(self, fields: int = 2, ghosts: int = 1, itemsize: int = 8) -> int:
        """Approximate allocation for ``fields`` ghosted copies of the grid.

        Matches the paper's Table III "Mem" column, which counts the u and
        u_new fields over all patches including their ghost layers.
        """
        ex = self.patch_extent
        per_patch = 1
        for a in range(3):
            per_patch *= ex[a] + 2 * ghosts
        return per_patch * itemsize * fields * self.num_patches
