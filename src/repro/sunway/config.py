"""Machine parameters of Sunway TaihuLight and the SW26010 processor.

Numbers come from the paper (Table II, Sec. IV) and the cited Dongarra
report.  They are frozen dataclasses so experiment configurations are
hashable and comparable.  This module holds only *architectural* facts;
the effective (achievable) rates the cost model charges are the defaults
of :class:`~repro.sunway.corerates.CoreRates`,
:class:`~repro.sunway.dma.DMAEngine`,
:class:`~repro.simmpi.network.FabricConfig` and
:class:`~repro.core.costs.SunwayCostModel` (provenance in
:mod:`repro.harness.calibration`).
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class CoreGroupConfig:
    """One SW26010 core-group (CG): 1 MPE + 64 CPEs + a memory controller.

    The paper uses CGs as the unit of distribution ("'CG' and 'computing
    node' are used interchangeably"), with one MPI process per CG.
    """

    #: Computing Processing Elements per core-group.
    num_cpes: int = 64
    #: Local Data Memory (scratchpad) per CPE, bytes.  64 KB on SW26010.
    ldm_bytes: int = 64 * 1024
    #: Peak double-precision rate of the single MPE, flop/s (23.2 Gflop/s).
    mpe_peak_flops: float = 23.2e9
    #: Aggregate peak of the 64-CPE cluster, flop/s (742.4 Gflop/s).
    cpe_cluster_peak_flops: float = 742.4e9
    #: SIMD width in doubles (256-bit vectors).
    simd_width: int = 4
    #: Main memory attached to the CG's memory controller, bytes (8 GB of
    #: the node's 32 GB, one 128-bit DDR3-2133 channel per CG).
    memory_bytes: int = 8 * 1024**3
    #: Theoretical DDR3-2133 channel bandwidth per CG, bytes/s
    #: (128 bit * 2133 MT/s = 34.1 GB/s).
    memory_bandwidth: float = 34.1e9

    @property
    def peak_flops(self) -> float:
        """Total CG peak = MPE + CPE cluster (765.6 Gflop/s)."""
        return self.mpe_peak_flops + self.cpe_cluster_peak_flops


@dataclasses.dataclass(frozen=True)
class SunwayMachine:
    """A Sunway TaihuLight partition: ``num_cgs`` core-groups on the fabric.

    The full machine has 40,960 nodes * 4 CGs; the paper's experimental
    queue allowed 1..128 CGs (8320 cores), which is also our default scale.
    """

    num_cgs: int = 128
    core_group: CoreGroupConfig = dataclasses.field(default_factory=CoreGroupConfig)

    def __post_init__(self) -> None:
        if self.num_cgs < 1:
            raise ValueError(f"need at least one core-group, got {self.num_cgs}")

    @property
    def peak_flops(self) -> float:
        """Aggregate theoretical peak of the partition, flop/s."""
        return self.num_cgs * self.core_group.peak_flops

    @property
    def total_cores(self) -> int:
        """MPE + CPE cores across the partition (260 per 4-CG node)."""
        return self.num_cgs * (1 + self.core_group.num_cpes)


#: The canonical SW26010 core-group, shared by most experiments.
SW26010 = CoreGroupConfig()


def table2_rows() -> list[tuple[str, str]]:
    """Reproduce Table II ("Major system parameters of Sunway TaihuLight")."""
    cg = SW26010
    node_peak = 4 * cg.peak_flops
    return [
        ("Node architecture", "1 SW26010 processor"),
        ("Node cores", f"4 MPEs + {4 * cg.num_cpes} CPEs, {4 * (1 + cg.num_cpes)} cores"),
        ("Node memory", "32GB, 4*128bit DDR3-2133"),
        ("Node Performance", f"{node_peak / 1e12:.2f} Tflop/s"),
        ("Interconnect Bandwidth", "Bidirectional P2P 16 GB/s"),
        ("Interconnect Latency", "around 1 us"),
    ]
