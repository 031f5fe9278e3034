"""Provenance of the calibrated cost-model constants.

The reproduction does not run on Sunway hardware; every effective rate
is calibrated against numbers the paper itself reports, so the simulated
evaluation reproduces the paper's *shapes* (who wins, by what rough
factor, where crossovers fall), not its absolute seconds.  Each number
is defined once, as the default of the model field that uses it, so a
default-built model *is* the calibrated one; this module only records
where each default comes from.

``CoreRates.cpe_scalar_flops``
    Sec. VII-E: the best configuration reaches 1.17% of peak; the SIMD
    kernel at ~2.2x over scalar then implies a scalar cluster rate of
    ~4.5 Gflop/s per CG = 70 Mflop/s per CPE (0.6% of a CPE's 11.6
    Gflop/s peak — scalar, cacheless, software exponentials).

``CoreRates.simd_stencil_speedup`` / ``CoreRates.simd_exp_speedup``
    The 4-wide SIMD pipelines speed the stencil arithmetic close to
    ideal, but the software exponentials vectorize poorly; blended over
    the 95/216 flop split this yields the compute-only ~2.3x that,
    after DMA and per-task overheads, lands in the paper's observed
    1.3-2.2x (Sec. VII-D).

``CoreRates.mpe_flops_cached`` / ``CoreRates.mpe_flops_streaming``
    Chosen so the host.sync -> acc offload boost spans the paper's
    2.7-6.0x across patch sizes (Sec. VII-D): small patches keep the
    3-plane stencil working set in the MPE's L2 and run faster.

``CoreRates.mpe_pack_s_per_cell`` / ``CoreRates.mpe_local_copy_s_per_cell``
    Back-computed from Tables V-VII: per-patch MPE-side ghost handling
    must be ~20% of the scalar kernel time (fully serial in sync mode,
    hidden in async mode) to reproduce both the async improvement
    (~13.5% average, up to ~39%) and the strong-scaling efficiencies
    (31.7%..97.7%).  Uintah data-warehouse operations per ghost cell
    are genuinely heavyweight on the slow MPE.

``SunwayCostModel.interference``
    MPE bulk traffic overlapped under the async scheduler contends with
    CPE DMA on the shared memory controller.  The scalar kernel is
    compute-bound and barely notices; the vectorized kernel is close to
    memory-bound and loses most of the overlap benefit — reproducing
    the paper's "smaller improvements ... with the vectorized kernel"
    (best 39.3% non-vectorized vs 22.8% vectorized).

``DMAEngine.bandwidth`` / ``DMAEngine.startup`` / ``DMAEngine.chunk_penalty``
    SW26010 aggregate per-CG DMA bandwidth is ~28 GB/s for packed
    transfers; strided tile rows pay per-descriptor costs (the paper's
    "pack the tiles" future work).

``FabricConfig.bandwidth`` / ``FabricConfig.latency`` / ``FabricConfig.sw_overhead``
    Table II: 16 GB/s bidirectional P2P, ~1 us latency, plus an MPI
    software overhead per message typical of Sunway's MPI.

``SunwayCostModel.launch_latency``
    The athread spawn latency per offload
    (:data:`repro.sunway.athread.LAUNCH_LATENCY`).
"""

from __future__ import annotations

from repro.core.costs import SunwayCostModel
from repro.simmpi.network import FabricConfig

#: The calibrated fabric, which is the default one.  Kept as a name
#: because the perfbench workloads read it.
FABRIC = FabricConfig()


def cost_model(**axes) -> SunwayCostModel:
    """``SunwayCostModel(**axes)``: the defaults are the calibrated values.

    Kept because the perfbench workloads build their cost model here;
    new code builds :class:`~repro.core.costs.SunwayCostModel` directly.
    """
    return SunwayCostModel(**axes)


def scheduler_kwargs() -> dict:
    """An empty dict: the scheduler takes its interference factor from
    the cost model (:attr:`SunwayCostModel.interference`).  Kept because
    the perfbench workloads extend it with their selection policy."""
    return {}
