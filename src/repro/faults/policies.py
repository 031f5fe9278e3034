"""Resilience policy: the recovery machinery's knobs.

One frozen dataclass configures every scheduler- and transport-side
recovery mechanism.  Attaching a policy (via
``SimulationController(resilience=...)``) arms:

* **Kernel completion timeout** — the MPE stops trusting the completion
  flag after ``kernel_timeout(expected)`` seconds, aborts the offload
  slot and re-offloads the kernel (``sunway.athread`` hung-CPE fault).
* **Bounded re-offload, then MPE fallback** — a kernel that times out or
  dies with a DMA error is re-offloaded up to ``max_offload_retries``
  times; after that the MPE executes it itself (slow but certain), so a
  permanently-broken CPE cluster degrades instead of hanging the job.
* **MPI retransmission with exponential backoff and jitter** — the
  transport layer in ``simmpi.network`` re-sends dropped messages after
  ``mpi_backoff_base * 2**(attempt-1)`` seconds, jittered by up to
  ``mpi_backoff_jitter`` of itself to de-synchronize retry storms; after
  ``mpi_max_retries`` attempts the link-level reliable channel is
  assumed to push the message through.
* **Straggler detection** — a kernel that completes but took more than
  ``straggler_factor`` times its cost-model estimate is counted (and
  traced), feeding slow-CPE diagnostics.
* **Checkpoint cadence** — the recovery runner archives a UDA checkpoint
  every ``checkpoint_every`` timesteps; whole-rank failure restarts the
  step from the last archive on the surviving layout.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class ResiliencePolicy:
    """Tunable parameters of the recovery machinery."""

    #: Kernel timeout = max(floor, factor * expected duration).
    kernel_timeout_factor: float = 3.0
    kernel_timeout_floor: float = 500e-6
    #: Re-offload attempts before falling back to MPE execution.
    max_offload_retries: int = 2

    #: Dropped-message retransmission: base backoff, growth is 2**k.
    mpi_backoff_base: float = 100e-6
    #: Jitter fraction: each backoff is stretched by up to this fraction.
    mpi_backoff_jitter: float = 0.25
    #: Retransmissions before the reliable link pushes the message through.
    mpi_max_retries: int = 5

    #: A completed kernel slower than this multiple of its estimate is a
    #: straggler.
    straggler_factor: float = 2.0

    #: Timesteps between UDA checkpoints (recovery runner).
    checkpoint_every: int = 5

    def __post_init__(self) -> None:
        if self.kernel_timeout_factor <= 1.0:
            raise ValueError("kernel_timeout_factor must exceed 1 (else every kernel times out)")
        if self.kernel_timeout_floor < 0:
            raise ValueError("kernel_timeout_floor must be >= 0")
        if self.max_offload_retries < 0:
            raise ValueError("max_offload_retries must be >= 0")
        if self.mpi_backoff_base <= 0:
            raise ValueError("mpi_backoff_base must be positive")
        if self.mpi_backoff_jitter < 0:
            raise ValueError("mpi_backoff_jitter must be >= 0")
        if self.mpi_max_retries < 1:
            raise ValueError("mpi_max_retries must be >= 1")
        if self.straggler_factor <= 1.0:
            raise ValueError("straggler_factor must exceed 1")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")

    def kernel_timeout(self, expected: float) -> float:
        """Seconds after which an offloaded kernel is declared hung."""
        return max(self.kernel_timeout_floor, self.kernel_timeout_factor * expected)
