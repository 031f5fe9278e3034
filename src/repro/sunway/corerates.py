"""Throughput model for kernel execution on the MPE and the CPE cluster.

This module turns *work descriptions* into *simulated seconds*.  It models
the mechanisms the paper's evaluation hinges on:

* **CPE compute**: effective per-CPE scalar throughput, with SIMD speeding
  up the stencil part close to the 4-wide ideal but the software
  exponentials much less (they vectorize poorly), so the overall SIMD
  speedup lands in the paper's observed 1.3-2.2x once DMA and per-task
  overheads are added.
* **DMA**: every tile pays chunked mem<->LDM transfers via
  :class:`~repro.sunway.dma.DMAEngine`; chunk counts depend on how the
  tile cuts across patch rows (tiles spanning the whole patch width
  transfer whole contiguous planes, interior tiles pay per-row descriptor
  costs — the motivation for the paper's "pack the tiles" future work).
* **MPE compute**: the MPE is a single cached core; kernels whose stencil
  working set (three xy-planes) falls out of the L2 cache stream from
  DDR and lose throughput.  This is why the paper's offload boost grows
  from 2.7x (small patches, cache-friendly MPE baseline) to 6.0x (large
  patches, cache-hostile baseline).

This module defines the formulas and the vocabulary (:class:`KernelCost`,
:class:`CoreRates`, :class:`TileWork`); the defaults of :class:`CoreRates`
are the calibrated rates (provenance in :mod:`repro.harness.calibration`).
"""

from __future__ import annotations

import dataclasses

from repro.sunway.dma import DMAEngine
from repro.sunway.fastmath import exp_flops


@dataclasses.dataclass(frozen=True)
class KernelCost:
    """Per-cell cost description of a numerical kernel.

    The Burgers kernel's values (Sec. III-A of the paper) are ~95
    non-exponential flops and 6 exponentials per cell.
    """

    #: Non-exponential flops per cell (stencil + phi arithmetic).
    stencil_flops: int
    #: Exponential evaluations per cell.
    exp_calls: int

    def flops_per_cell(self, fast_exp: bool = True) -> int:
        """Counted flops per cell under the chosen exp library."""
        return self.stencil_flops + self.exp_calls * exp_flops(fast_exp)


@dataclasses.dataclass(frozen=True)
class TileWork:
    """The DMA/compute work of one LDM tile, as seen by one CPE."""

    #: Interior cells computed by the tile.
    cells: int
    #: Bytes DMA'd main memory -> LDM (tile plus ghost halo).
    get_bytes: int
    #: Bytes DMA'd LDM -> main memory (tile interior results).
    get_chunks: int
    #: Contiguous chunks of the inbound transfer.
    put_bytes: int
    #: Contiguous chunks of the outbound transfer.
    put_chunks: int


@dataclasses.dataclass(frozen=True)
class CoreRates:
    """Calibrated effective throughputs for one core-group.

    All rates are *effective sustained* values for stencil-class kernels,
    far below architectural peak — the paper itself lands at ~1% of peak
    (Sec. VII-E), which is what these defaults reproduce.
    """

    #: Effective scalar flop/s of one CPE running the kernel from LDM.
    cpe_scalar_flops: float = 70e6
    #: SIMD speedup of the stencil (non-exp) part of the kernel.
    simd_stencil_speedup: float = 3.6
    #: SIMD speedup of the software-exponential part (vectorizes poorly).
    simd_exp_speedup: float = 2.0
    #: Effective flop/s of the MPE when the stencil working set is cached.
    mpe_flops_cached: float = 1.05e9
    #: Effective flop/s of the MPE when streaming from DDR (large patches).
    mpe_flops_streaming: float = 0.62e9
    #: MPE L2 data cache capacity, bytes (256 KB on SW26010).
    mpe_l2_bytes: int = 256 * 1024
    #: MPE per-cell cost of packing/unpacking ghost faces into MPI buffers
    #: (data-warehouse lookup + iterator copy + marshalling on the 1.45 GHz
    #: in-order-ish MPE; Uintah DW operations are heavyweight).
    mpe_pack_s_per_cell: float = 200e-9
    #: MPE per-cell cost of a direct local (intra-rank) ghost copy.
    mpe_local_copy_s_per_cell: float = 70e-9

    # -- CPE side -------------------------------------------------------------
    def cpe_cell_compute_time(
        self, cost: KernelCost, simd: bool, fast_exp: bool = True
    ) -> float:
        """Seconds of pure compute per cell on one CPE."""
        t_stencil = cost.stencil_flops / self.cpe_scalar_flops
        t_exp = cost.exp_calls * exp_flops(fast_exp) / self.cpe_scalar_flops
        if simd:
            t_stencil /= self.simd_stencil_speedup
            t_exp /= self.simd_exp_speedup
        return t_stencil + t_exp

    def tile_time(
        self,
        work: TileWork,
        cost: KernelCost,
        dma: DMAEngine,
        simd: bool,
        fast_exp: bool = True,
        async_dma: bool = False,
    ) -> float:
        """Seconds for one CPE to process one tile (get/compute/put)."""
        compute = work.cells * self.cpe_cell_compute_time(cost, simd, fast_exp)
        return dma.tile_cycle_time(
            get_bytes=work.get_bytes,
            put_bytes=work.put_bytes,
            compute_time=compute,
            get_chunks=work.get_chunks,
            put_chunks=work.put_chunks,
            async_dma=async_dma,
        )

    def cluster_kernel_time(
        self,
        per_cpe_tiles: list[list[TileWork]],
        cost: KernelCost,
        dma: DMAEngine,
        simd: bool,
        fast_exp: bool = True,
        async_dma: bool = False,
    ) -> float:
        """Seconds for the CPE cluster to finish a kernel offload.

        ``per_cpe_tiles[c]`` is the tile list assigned to CPE ``c``; the
        cluster finishes when its most-loaded CPE does (the paper's tile
        scheduler has no work stealing — Sec. V-D notes load imbalance
        among tiles is future work).
        """
        if not per_cpe_tiles:
            return 0.0
        # one tile_time per distinct TileWork object (a tile plan shares
        # one per tile shape); the per-CPE sums keep their order
        times: dict[int, float] = {}
        worst = 0.0
        for tiles in per_cpe_tiles:
            t = 0.0
            for work in tiles:
                tw = times.get(id(work))
                if tw is None:
                    tw = times[id(work)] = self.tile_time(
                        work, cost, dma, simd, fast_exp, async_dma
                    )
                t += tw
            worst = max(worst, t)
        return worst

    # -- MPE side ---------------------------------------------------------------
    def mpe_streaming_fraction(self, plane_bytes: int) -> float:
        """How cache-hostile a patch is for the MPE's k-direction reuse.

        A k-sweep stencil needs ~3 xy-planes resident for the ``k-1``/
        ``k+1`` neighbours to hit in cache.  Returns 0 when three planes
        fit comfortably in L2, 1 when they decisively do not, with a
        linear ramp in between (a standard capacity-miss model).
        """
        need = 3 * plane_bytes
        lo = 0.5 * self.mpe_l2_bytes  # comfortable fit
        hi = 1.5 * self.mpe_l2_bytes  # decisively thrashing
        if need <= lo:
            return 0.0
        if need >= hi:
            return 1.0
        return (need - lo) / (hi - lo)

    def mpe_effective_flops(self, plane_bytes: int) -> float:
        """Effective MPE flop/s for a patch with xy-planes of ``plane_bytes``."""
        f = self.mpe_streaming_fraction(plane_bytes)
        return self.mpe_flops_cached * (1 - f) + self.mpe_flops_streaming * f

    def mpe_kernel_time(
        self,
        cells: int,
        plane_bytes: int,
        cost: KernelCost,
        fast_exp: bool = True,
    ) -> float:
        """Seconds for the MPE alone to run the kernel on ``cells`` cells."""
        rate = self.mpe_effective_flops(plane_bytes)
        return cells * cost.flops_per_cell(fast_exp) / rate

    def pack_time(self, cells: int, remote: bool) -> float:
        """Seconds for the MPE to pack/unpack ``cells`` ghost cells."""
        per = self.mpe_pack_s_per_cell if remote else self.mpe_local_copy_s_per_cell
        return cells * per
