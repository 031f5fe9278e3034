#!/usr/bin/env python
"""Explore LDM tile-size selection (paper Sec. VI-A).

Shows, for each Table III patch size, which tile shapes fit the 64 KB
LDM, their working sets, ghost overhead and modelled kernel time — and
that the selector lands on the paper's 16x16x8 (41.3 KB) for the Burgers
working set on the whole suite.

Usage::

    python examples/tile_explorer.py
"""

from repro.burgers.flops import BURGERS_KERNEL_COST
from repro.core.tiling import TilePlan, choose_tile_shape, working_set_bytes
from repro.harness.problems import PROBLEMS
from repro.harness.reportfmt import render_table
from repro.sunway.corerates import CoreRates
from repro.sunway.dma import DMAEngine
from repro.sunway.ldm import LDM, LDMAllocationError


def tile_report(patch_extent, candidates):
    rates, dma = CoreRates(), DMAEngine()
    rows = []
    for shape in candidates:
        ws = working_set_bytes(shape, ghosts=1, fields_in=1, fields_out=1)
        ldm = LDM()
        try:
            ldm.alloc("working-set", ws)
            fits = "yes"
        except LDMAllocationError:
            fits = "NO"
        cells = shape[0] * shape[1] * shape[2]
        halo = (shape[0] + 2) * (shape[1] + 2) * (shape[2] + 2)
        ghost_pct = (halo - cells) / cells * 100
        if fits == "yes":
            plan = TilePlan(patch_extent=patch_extent, tile_shape=shape, ghosts=1)
            t = rates.cluster_kernel_time(
                plan.per_cpe_work(), BURGERS_KERNEL_COST, dma, simd=True
            )
            time = f"{t * 1e3:.2f}ms"
        else:
            time = "-"
        rows.append(
            (
                "x".join(map(str, shape)),
                f"{ws / 1024:.1f}KB",
                fits,
                f"{ghost_pct:.0f}%",
                time,
            )
        )
    return rows


def main() -> None:
    candidates = [
        (8, 8, 8), (16, 8, 8), (16, 16, 4), (16, 16, 8), (16, 16, 16),
        (32, 16, 8), (16, 32, 8), (32, 32, 8),
    ]
    rows = tile_report((128, 128, 512), candidates)
    print(
        render_table(
            "Tile candidates for a 128x128x512 patch (LDM = 64KB, "
            "u ghosted + u_new)",
            ["Tile", "Working set", "Fits LDM", "Ghost overhead", "SIMD kernel time"],
            rows,
        )
    )
    print()
    print("Selector choice per Table III patch (paper: 16x16x8, 41.3 KB):")
    for p in PROBLEMS:
        shape = choose_tile_shape(p.patch_extent)
        ws = working_set_bytes(shape) / 1024
        print(f"  {p.name:>12} -> {'x'.join(map(str, shape))}  ({ws:.1f} KB)")


if __name__ == "__main__":
    main()
