"""The evaluation's problem settings (paper Table III).

"The grid is partitioned into 128 patches with a fixed 8x8x2 patch
layout ... starting from the smallest possible patch, double the size in
a round-robin way among the x and y axes each time, until ... the data
exceeds the memory limit of one CG.  As the tile size used is 16x16x8,
and 64 CPEs per CG are used, the smallest patch is 16x16x512."
"""

from __future__ import annotations

import dataclasses

from repro.core.grid import Grid

#: The evaluation's fixed patch layout: 8 x 8 x 2 = 128 patches.
PATCH_LAYOUT = (8, 8, 2)
#: CG counts swept in the strong-scaling study (Sec. VII-A).
CG_COUNTS = (1, 2, 4, 8, 16, 32, 64, 128)
#: Memory a single CG can realistically dedicate to the solution fields
#: (ghost layers included): 2.5 GiB of its 8 GiB — the runtime, the
#: toolchain, MPI buffers and pack scratch consume the rest.  Against
#: the ghosted per-rank demand this reproduces Table III's "Min" column,
#: including the paper's observation that 64x64x512 "crashes with memory
#: allocation errors when using 1 CG".
USABLE_BYTES_PER_CG = int(2.5 * 1024**3)


@dataclasses.dataclass(frozen=True)
class ProblemSetting:
    """One row of Table III."""

    patch_extent: tuple[int, int, int]

    @property
    def name(self) -> str:
        """The paper's problem name, e.g. ``"16x16x512"``."""
        return "x".join(str(e) for e in self.patch_extent)

    @property
    def grid_extent(self) -> tuple[int, int, int]:
        """Global grid size under the fixed 8x8x2 layout."""
        return tuple(  # type: ignore[return-value]
            p * l for p, l in zip(self.patch_extent, PATCH_LAYOUT)
        )

    def grid(self) -> Grid:
        """The mesh object for this problem."""
        return Grid(extent=self.grid_extent, layout=PATCH_LAYOUT)

    @property
    def memory_bytes(self) -> int:
        """Table III "Mem": two 8-byte fields over the grid."""
        nx, ny, nz = self.grid_extent
        return nx * ny * nz * 8 * 2

    @property
    def ghosted_memory_bytes(self) -> int:
        """Allocated bytes including each patch's ghost layer (2 fields)."""
        px, py, pz = self.patch_extent
        per_patch = (px + 2) * (py + 2) * (pz + 2) * 8 * 2
        return per_patch * 128

    @property
    def min_cgs(self) -> int:
        """Smallest CG count the problem fits on (Table III "Min")."""
        cgs = 1
        while self.ghosted_memory_bytes / cgs > USABLE_BYTES_PER_CG:
            cgs *= 2
        return cgs

    def cg_counts(self) -> list[int]:
        """The strong-scaling sweep for this problem: min CGs .. 128."""
        return [c for c in CG_COUNTS if c >= self.min_cgs]


#: The seven problems of Table III, smallest to largest.
PROBLEMS: tuple[ProblemSetting, ...] = tuple(
    ProblemSetting(pe)
    for pe in [
        (16, 16, 512),
        (16, 32, 512),
        (32, 32, 512),
        (32, 64, 512),
        (64, 64, 512),
        (64, 128, 512),
        (128, 128, 512),
    ]
)


def problem_by_name(name: str) -> ProblemSetting:
    """Look up a Table III problem by its ``PXxPYxPZ`` name."""
    for p in PROBLEMS:
        if p.name == name:
            return p
    raise KeyError(f"unknown problem {name!r}; have {[p.name for p in PROBLEMS]}")


def small_medium_large() -> tuple[ProblemSetting, ProblemSetting, ProblemSetting]:
    """The paper's three 'typical' problems (Sec. VII-D / Figs. 6-8)."""
    return (
        problem_by_name("16x16x512"),
        problem_by_name("32x64x512"),
        problem_by_name("128x128x512"),
    )
