"""DMA transfers between main memory and the LDM.

On SW26010 a CPE reaches main memory efficiently only through DMA
(``athread_get`` / ``athread_put``).  The paper's CPE tile scheduler
(Sec. V-D) does *synchronous* get / compute / put per tile and flags the
asynchronous variant as future work; both are modelled here.

Cost model
----------
A transfer of ``n`` bytes costs ``startup + n / bandwidth`` where
``bandwidth`` is the *per-CPE effective* DMA bandwidth when all 64 CPEs
stream concurrently (the memory controller's aggregate bandwidth divided
by the number of concurrently-streaming CPEs, capped by the per-CPE link).
Strided/non-contiguous transfers pay a multiplicative penalty — the reason
the paper suggests "packing the tiles" as future work.
"""

from __future__ import annotations

import dataclasses


class DMAError(RuntimeError):
    """A DMA transfer failed mid-kernel (fault-injection model).

    On real SW26010 hardware a failing ``athread_get``/``athread_put``
    leaves the LDM tile in an undefined state and the kernel cannot
    publish its results.  The simulated fault
    (:class:`~repro.faults.injector.FaultInjector` ``dma_error``) mirrors
    that contract: the offload handle completes *with this error*, its
    data effects are never applied, and the scheduler's resilience policy
    decides between re-offload and MPE fallback.  Without a policy the
    error propagates and aborts the run — a fault-oblivious scheduler
    must not silently continue on corrupt data.
    """

    def __init__(self, kernel: str, frac: float):
        super().__init__(
            f"DMA transfer error in kernel {kernel!r} at {frac:.0%} of its runtime"
        )
        self.kernel = kernel
        self.frac = frac


@dataclasses.dataclass(frozen=True)
class DMATransfer:
    """One DMA operation, for traces and accounting."""

    direction: str  # "get" (mem->LDM) or "put" (LDM->mem)
    nbytes: int
    contiguous_chunks: int = 1

    def __post_init__(self) -> None:
        if self.direction not in ("get", "put"):
            raise ValueError(f"direction must be 'get' or 'put', got {self.direction!r}")
        if self.nbytes < 0:
            raise ValueError(f"negative transfer size {self.nbytes}")
        if self.contiguous_chunks < 1:
            raise ValueError(f"chunks must be >= 1, got {self.contiguous_chunks}")


@dataclasses.dataclass(frozen=True)
class DMAVolume:
    """Aggregate DMA traffic of one kernel launch, all CPEs, all tiles.

    Derived from the tile plan (not from individual transfers) so it can
    be computed once per ``(task, extent)`` and cached alongside the
    kernel-time cache.  ``descriptors`` counts DMA descriptors issued:
    one per contiguous chunk of every get and put.
    """

    get_bytes: int = 0
    put_bytes: int = 0
    descriptors: int = 0

    @property
    def total_bytes(self) -> int:
        return self.get_bytes + self.put_bytes

    def __add__(self, other: "DMAVolume") -> "DMAVolume":
        return DMAVolume(
            self.get_bytes + other.get_bytes,
            self.put_bytes + other.put_bytes,
            self.descriptors + other.descriptors,
        )


@dataclasses.dataclass(frozen=True)
class DMAEngine:
    """Per-CPE DMA cost model.

    Parameters
    ----------
    bandwidth:
        Effective per-CPE DMA bandwidth in bytes/s with all CPEs
        streaming.  SW26010's aggregate measured DMA bandwidth is about
        28 GB/s per CG; divided over 64 concurrently-active CPEs this is
        ~0.44 GB/s per CPE.  The defaults are the calibrated values
        (provenance in ``repro.harness.calibration``).
    startup:
        Fixed per-DMA-descriptor latency, seconds.
    chunk_penalty:
        Additional startup charged per extra non-contiguous chunk, as a
        fraction of ``startup``.  A fully-packed transfer has 1 chunk.
    """

    bandwidth: float = 28e9 / 64
    startup: float = 1.2e-6
    chunk_penalty: float = 0.25

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.startup < 0:
            raise ValueError(f"startup must be >= 0, got {self.startup}")

    def transfer_time(self, transfer: DMATransfer) -> float:
        """Seconds to complete ``transfer`` (synchronous)."""
        extra = (transfer.contiguous_chunks - 1) * self.chunk_penalty * self.startup
        return self.startup + extra + transfer.nbytes / self.bandwidth

    def get_time(self, nbytes: int, chunks: int = 1) -> float:
        """Seconds for a mem->LDM read of ``nbytes`` in ``chunks`` pieces."""
        return self.transfer_time(DMATransfer("get", nbytes, chunks))

    def put_time(self, nbytes: int, chunks: int = 1) -> float:
        """Seconds for an LDM->mem write of ``nbytes`` in ``chunks`` pieces."""
        return self.transfer_time(DMATransfer("put", nbytes, chunks))

    def tile_cycle_time(
        self,
        get_bytes: int,
        put_bytes: int,
        compute_time: float,
        get_chunks: int = 1,
        put_chunks: int = 1,
        async_dma: bool = False,
    ) -> float:
        """Seconds for one get/compute/put tile cycle.

        With ``async_dma=False`` (the paper's implementation) the three
        phases are strictly serial.  With ``async_dma=True`` (the paper's
        future-work extension) transfers for tile *i+1* overlap compute of
        tile *i* in a double-buffered pipeline, so the steady-state cycle
        cost is ``max(compute, get + put)`` — the dominated phase hides.
        """
        t_get = self.get_time(get_bytes, get_chunks)
        t_put = self.put_time(put_bytes, put_chunks)
        if async_dma:
            return max(compute_time, t_get + t_put)
        return t_get + compute_time + t_put
