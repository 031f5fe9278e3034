"""Patches and index-space regions.

Uintah "subdivides the computational grid into patches, and assigns
groups of patches to distributed memory computing nodes" (paper Sec. II).
A :class:`Patch` is an axis-aligned box of cells in the global index
space; a :class:`Region` is the same thing without an identity, used for
ghost-exchange geometry.

Index conventions: cells are identified by integer triples ``(i, j, k)``;
boxes are half-open, ``low`` inclusive, ``high`` exclusive, per axis
``(x, y, z)``.
"""

from __future__ import annotations

import dataclasses
import itertools
import typing as _t

#: Face identifiers: (axis, side) with side -1 = low face, +1 = high face.
FACES: tuple[tuple[int, int], ...] = tuple(
    (axis, side) for axis in range(3) for side in (-1, 1)
)


@dataclasses.dataclass(frozen=True)
class Region:
    """A half-open box of cells in global index space."""

    low: tuple[int, int, int]
    high: tuple[int, int, int]
    #: Cells per axis (derived from ``low``/``high`` at construction).
    extent: tuple[int, int, int] = dataclasses.field(init=False, repr=False, compare=False)
    #: Total cells in the region.
    num_cells: int = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        low, high = self.low, self.high
        ex = (high[0] - low[0], high[1] - low[1], high[2] - low[2])
        if ex[0] < 0 or ex[1] < 0 or ex[2] < 0:
            axis = min(a for a in range(3) if ex[a] < 0)
            raise ValueError(f"inverted region on axis {axis}: {low} .. {high}")
        object.__setattr__(self, "extent", ex)  # frozen dataclass
        object.__setattr__(self, "num_cells", ex[0] * ex[1] * ex[2])

    @property
    def empty(self) -> bool:
        """True if any axis has zero extent."""
        return any(h <= l for l, h in zip(self.low, self.high))

    def intersect(self, other: "Region") -> "Region":
        """The overlap of two regions (possibly empty)."""
        low = tuple(max(a, b) for a, b in zip(self.low, other.low))
        high = tuple(max(min(a, b), l) for a, b, l in zip(self.high, other.high, low))
        return Region(low, high)  # type: ignore[arg-type]

    def grown(self, ghosts: int) -> "Region":
        """The region expanded by ``ghosts`` cells on every side."""
        if ghosts < 0:
            raise ValueError(f"ghosts must be >= 0, got {ghosts}")
        return Region(
            tuple(l - ghosts for l in self.low),  # type: ignore[arg-type]
            tuple(h + ghosts for h in self.high),  # type: ignore[arg-type]
        )

    def contains(self, cell: tuple[int, int, int]) -> bool:
        """Whether ``cell`` lies inside the region."""
        return all(l <= c < h for l, c, h in zip(self.low, cell, self.high))

    def cells(self) -> _t.Iterator[tuple[int, int, int]]:
        """Iterate all cells (for tests; production code slices arrays)."""
        return itertools.product(*(range(l, h) for l, h in zip(self.low, self.high)))


@dataclasses.dataclass(frozen=True)
class Patch:
    """One mesh patch: a region with an identity and a grid position.

    ``index`` is the patch's coordinate in the patch layout (e.g. the
    paper's fixed 8x8x2 layout), ``patch_id`` its global serial number.
    """

    patch_id: int
    index: tuple[int, int, int]
    region: Region

    @property
    def low(self) -> tuple[int, int, int]:
        """Inclusive low cell corner."""
        return self.region.low

    @property
    def high(self) -> tuple[int, int, int]:
        """Exclusive high cell corner."""
        return self.region.high

    @property
    def extent(self) -> tuple[int, int, int]:
        """Patch size in cells per axis."""
        return self.region.extent

    @property
    def num_cells(self) -> int:
        """Interior cells of the patch."""
        return self.region.num_cells

    def face_region(self, axis: int, side: int, width: int = 1) -> Region:
        """The slab of *interior* cells on a face, ``width`` cells deep.

        This is the data a neighbour needs as its ghost layer.
        """
        low = list(self.low)
        high = list(self.high)
        if side < 0:
            high[axis] = low[axis] + width
        else:
            low[axis] = high[axis] - width
        return Region(tuple(low), tuple(high))  # type: ignore[arg-type]

    def ghost_region(self, axis: int, side: int, width: int = 1) -> Region:
        """The slab of ghost cells just outside a face, ``width`` deep."""
        low = list(self.low)
        high = list(self.high)
        if side < 0:
            high[axis] = low[axis]
            low[axis] = low[axis] - width
        else:
            low[axis] = high[axis]
            high[axis] = high[axis] + width
        return Region(tuple(low), tuple(high))  # type: ignore[arg-type]

    @property
    def surface_cells(self) -> int:
        """Total interior cells lying on any face (ghost-source volume)."""
        ex, ey, ez = self.extent
        if min(ex, ey, ez) <= 2:
            return self.num_cells
        return self.num_cells - (ex - 2) * (ey - 2) * (ez - 2)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Patch {self.patch_id} idx={self.index} {self.low}..{self.high}>"
