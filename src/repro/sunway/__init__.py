"""SW26010 / Sunway TaihuLight architectural model.

This package is the hardware substrate the reproduction runs on.  The real
paper ran on Sunway TaihuLight; everything architecture-specific the
scheduler depends on is modelled here explicitly:

* :mod:`~repro.sunway.config` — machine parameters (Table II of the paper):
  core-group topology (1 MPE + 64 CPEs), peak rates, memory, interconnect.
* :mod:`~repro.sunway.ldm` — the 64 KB per-CPE Local Data Memory as a real
  capacity-checked allocator.
* :mod:`~repro.sunway.dma` — DMA transfer cost model (``athread_get`` /
  ``athread_put`` bandwidth and latency).
* :mod:`~repro.sunway.athread` — the offload interface: spawn a kernel on
  the CPE cluster, completion flags updated atomically (the ``faaw``
  instruction), synchronous join or asynchronous polling.
* :mod:`~repro.sunway.corerates` — throughput model for MPE and CPE
  execution of instrumented kernels (splits exponential and stencil work,
  models SIMD speedup and fast-exp vs IEEE-exp cost).  Its
  :class:`~repro.sunway.corerates.KernelCost` is the one per-cell flop
  count: the scheduler charges it and Table I multiplies it out, with
  division and square root counted as one operation, as the SW26010
  counters do.
* :mod:`~repro.sunway.simd` — a behavioural emulation of the 256-bit 4-wide
  SIMD intrinsics used in the paper's Algorithm 2.
* :mod:`~repro.sunway.fastmath` — IEEE vs fast (non-conforming) software
  exponentials; the fast one really is less accurate, as on Sunway.
"""

from repro.sunway.config import (
    SunwayMachine,
    CoreGroupConfig,
    InterconnectConfig,
    SW26010,
)
from repro.sunway.ldm import LDM, LDMAllocationError
from repro.sunway.dma import DMAEngine, DMATransfer
from repro.sunway.athread import AthreadRuntime, CompletionFlag, OffloadHandle
from repro.sunway.corerates import KernelCost, CoreRates

__all__ = [
    "SunwayMachine",
    "CoreGroupConfig",
    "InterconnectConfig",
    "SW26010",
    "LDM",
    "LDMAllocationError",
    "DMAEngine",
    "DMATransfer",
    "AthreadRuntime",
    "CompletionFlag",
    "OffloadHandle",
    "KernelCost",
    "CoreRates",
]
