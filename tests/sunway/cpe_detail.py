"""Event-level simulation of the CPE tile scheduler (paper Sec. V-D).

This is the test oracle for the analytic cluster time; only
``test_cpe_detail.py`` uses it.  The production cost model computes a
kernel offload's duration
analytically (:meth:`~repro.sunway.corerates.CoreRates.cluster_kernel_time`:
the most-loaded CPE's serial tile time).  This module simulates the same
tile scheduler at event granularity — one DES process per CPE, one
get/compute/put cycle per tile, a shared completion flag bumped by
``faaw`` as each CPE finishes — so the analytic formula can be validated
against an executable model, and finer-grained policies (asynchronous
double-buffered DMA, work stealing between CPEs) can be studied.

The paper notes its tile scheduler "does not take into account potential
load imbalances among tiles, and does not make use of the fact that the
memory-LDM transfer can be asynchronous. These issues will be addressed
in the future."  Both future policies are implemented here behind flags.
"""

from __future__ import annotations

import dataclasses

from repro.des import Simulator, Store
from repro.sunway.athread import CompletionFlag
from repro.sunway.corerates import CoreRates, KernelCost, TileWork
from repro.sunway.dma import DMAEngine


@dataclasses.dataclass
class ClusterRunResult:
    """Outcome of one event-level cluster execution."""

    #: Simulated seconds from launch to the last CPE's faaw.
    duration: float
    #: Per-CPE busy seconds.
    cpe_busy: list[float]
    #: Tiles processed per CPE (interesting under work stealing).
    tiles_done: list[int]

    @property
    def imbalance(self) -> float:
        """Max/mean busy-time ratio (1.0 = perfectly balanced)."""
        busy = [b for b in self.cpe_busy]
        mean = sum(busy) / len(busy) if busy else 0.0
        return max(busy) / mean if mean > 0 else 1.0


def simulate_cluster(
    per_cpe_tiles: list[list[TileWork]],
    cost: KernelCost,
    rates: CoreRates,
    dma: DMAEngine,
    simd: bool = False,
    fast_exp: bool = True,
    async_dma: bool = False,
    work_stealing: bool = False,
) -> ClusterRunResult:
    """Run the CPE tile scheduler at event granularity.

    ``per_cpe_tiles`` is the static z-partition assignment (from
    :meth:`~repro.core.tiling.TilePlan.per_cpe_work`).  With
    ``work_stealing=True`` the static assignment only seeds a shared
    queue and idle CPEs take the next tile from it — the future-work
    fix for tile load imbalance.
    """
    num_cpes = len(per_cpe_tiles)
    if num_cpes == 0:
        return ClusterRunResult(0.0, [], [])
    sim = Simulator()
    flag = CompletionFlag(sim)
    busy = [0.0] * num_cpes
    done = [0] * num_cpes

    if work_stealing:
        queue: Store = Store(sim, name="tile-queue")
        total_tiles = 0
        for tiles in per_cpe_tiles:
            for work in tiles:
                queue.put(work)
                total_tiles += 1

        def cpe(sim: Simulator, cpe_id: int):
            while True:
                work = queue.try_get()
                if work is None:
                    break
                t = rates.tile_time(work, cost, dma, simd, fast_exp, async_dma)
                yield sim.timeout(t)
                busy[cpe_id] += t
                done[cpe_id] += 1
            flag.faaw()

    else:

        def cpe(sim: Simulator, cpe_id: int):
            for work in per_cpe_tiles[cpe_id]:
                t = rates.tile_time(work, cost, dma, simd, fast_exp, async_dma)
                yield sim.timeout(t)
                busy[cpe_id] += t
                done[cpe_id] += 1
            flag.faaw()

    for c in range(num_cpes):
        sim.process(cpe(sim, c), name=f"cpe{c}")
    sim.run(until=flag.reached(num_cpes))
    return ClusterRunResult(duration=sim.now, cpe_busy=busy, tiles_done=done)
