"""The deterministic, seedable fault source.

The injector is a passive oracle: the runtime components that model
hardware (``sunway.athread`` for CPE offloads, ``simmpi.network`` for the
interconnect, the schedulers for timestep boundaries) *ask* it whether a
fault strikes the operation they are about to perform.  Because the DES
executes single-threaded in a deterministic event order, the sequence of
queries — and therefore the per-category RNG streams — is reproducible:
the same seed and configuration produce a bit-identical fault event
stream, which the determinism tests assert.

Fault surface
-------------
* CPE faults, drawn once per offloaded kernel (``kernel_fault``):
  ``slowdown`` (the kernel takes ``kernel_slowdown_factor`` times
  longer), ``stuck`` (the completion flag is never bumped — a hung CPE),
  and ``dma_error`` (the kernel dies at ``dma_error_frac`` of its runtime
  with a :class:`~repro.sunway.dma.DMAError`; its data effects are never
  published).
* Network faults, drawn once per matched point-to-point transfer
  (``message_fault``): ``drop`` (the transport must retransmit with
  backoff), ``duplicate`` (the wire carries the payload twice; the
  transport filters the copy), ``delay`` (an extra fixed latency), and a
  per-rank ``brownout`` (every message touching one rank inside a
  simulated-time window runs ``brownout_factor`` times slower — no RNG,
  purely window-driven).
* Whole-rank failure (``on_step_begin``): rank ``fail_rank`` raises
  :class:`RankFailure` when it reaches global timestep ``fail_at_step``.
  Recovery from this is the job of
  :class:`~repro.faults.recovery.ResilientRunner`.

Injecting faults without a :class:`~repro.faults.policies.ResiliencePolicy`
attached to the scheduler surfaces them raw: a DMA error raises, a stuck
kernel starves the DES until the simulator reports a deadlock.  That is
intentional — the fault model and the recovery machinery are separable.
"""

from __future__ import annotations

import dataclasses

import numpy as np


class RankFailure(RuntimeError):
    """A simulated whole-rank (core-group) failure.

    Raised inside the failing rank's scheduler at the beginning of the
    configured timestep; propagates out of ``Simulator.run`` through the
    failed driver process so the run aborts exactly like a died node
    would kill an MPI job.
    """

    def __init__(self, rank: int, step: int):
        super().__init__(f"rank {rank} failed at start of timestep {step}")
        self.rank = rank
        self.step = step


@dataclasses.dataclass(frozen=True)
class KernelFault:
    """One fault striking an offloaded kernel."""

    kind: str  # "slowdown" | "stuck" | "dma_error"
    #: Duration multiplier (slowdown only).
    factor: float = 1.0
    #: Fraction of the kernel duration at which a DMA error strikes.
    error_frac: float = 0.5


@dataclasses.dataclass(frozen=True)
class MessageFault:
    """Faults striking one matched point-to-point message."""

    drop: bool = False
    duplicate: bool = False
    #: Extra seconds added to the transfer.
    extra_delay: float = 0.0
    #: Multiplier on the fault-free transfer time (brownout).
    slow_factor: float = 1.0


@dataclasses.dataclass(frozen=True)
class InjectedFault:
    """Log record of one injected fault (the deterministic event stream)."""

    time: float
    kind: str
    site: str


@dataclasses.dataclass(frozen=True)
class FaultConfig:
    """What to inject, with which probabilities, under which seed.

    All probabilities default to zero: a default-constructed config
    injects nothing and the runtime behaves bit-identically to a run
    without an injector attached.
    """

    seed: int = 0

    # -- CPE faults (per offloaded kernel) --------------------------------
    kernel_slowdown_prob: float = 0.0
    kernel_slowdown_factor: float = 4.0
    kernel_stuck_prob: float = 0.0
    dma_error_prob: float = 0.0
    dma_error_frac: float = 0.35

    # -- network faults (per matched p2p message) -------------------------
    msg_drop_prob: float = 0.0
    msg_dup_prob: float = 0.0
    msg_delay_prob: float = 0.0
    msg_delay_seconds: float = 200e-6

    # -- brownout: one rank's NIC runs slow inside a sim-time window ------
    brownout_rank: int | None = None
    brownout_t0: float = 0.0
    brownout_t1: float = 0.0
    brownout_factor: float = 8.0

    # -- whole-rank failure ----------------------------------------------
    fail_rank: int | None = None
    fail_at_step: int | None = None

    def __post_init__(self) -> None:
        probs = (
            self.kernel_slowdown_prob,
            self.kernel_stuck_prob,
            self.dma_error_prob,
            self.msg_drop_prob,
            self.msg_dup_prob,
            self.msg_delay_prob,
        )
        for p in probs:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"fault probabilities must be in [0, 1], got {p}")
        if self.kernel_slowdown_prob + self.kernel_stuck_prob + self.dma_error_prob > 1.0:
            raise ValueError("kernel fault probabilities must sum to <= 1")
        if self.msg_drop_prob + self.msg_dup_prob + self.msg_delay_prob > 1.0:
            raise ValueError("message fault probabilities must sum to <= 1")
        if self.kernel_slowdown_factor < 1.0:
            raise ValueError("kernel_slowdown_factor must be >= 1")
        if not 0.0 < self.dma_error_frac <= 1.0:
            raise ValueError("dma_error_frac must be in (0, 1]")
        if (self.fail_rank is None) != (self.fail_at_step is None):
            raise ValueError("fail_rank and fail_at_step must be set together")
        if self.fail_at_step is not None and self.fail_at_step < 1:
            raise ValueError("fail_at_step numbers timesteps from 1")

    @property
    def cpe_active(self) -> bool:
        """Whether any per-kernel fault can fire."""
        return (
            self.kernel_slowdown_prob + self.kernel_stuck_prob + self.dma_error_prob
        ) > 0.0

    @property
    def net_active(self) -> bool:
        """Whether any per-message fault can fire."""
        return (
            self.msg_drop_prob + self.msg_dup_prob + self.msg_delay_prob
        ) > 0.0 or self.brownout_rank is not None

    @property
    def can_hang(self) -> bool:
        """Whether a kernel may never complete (watchdog required)."""
        return self.kernel_stuck_prob > 0.0


class FaultInjector:
    """Seeded fault oracle shared by all ranks of one simulated job.

    Separate RNG streams per fault category (CPE, network, retransmission
    jitter) keep the categories independent: adding message faults does
    not perturb the kernel fault stream and vice versa.  Every injected
    fault is appended to :attr:`injected` — the event stream the
    determinism tests compare across runs.
    """

    def __init__(self, config: FaultConfig | None = None):
        self.config = config or FaultConfig()
        seed = self.config.seed
        self._rng_cpe = np.random.default_rng((seed, 0xC93))
        self._rng_net = np.random.default_rng((seed, 0x7E7))
        self._rng_jit = np.random.default_rng((seed, 0x317))
        self.injected: list[InjectedFault] = []
        #: Global step number of relative step 0 (set by the recovery
        #: runner when a segment restarts from a checkpoint).
        self.step_offset = 0
        self._failure_armed = self.config.fail_rank is not None

    # -- properties the runtime gates overhead on --------------------------
    @property
    def can_hang(self) -> bool:
        """True if the scheduler needs a completion-timeout watchdog."""
        return self.config.can_hang

    # -- CPE faults --------------------------------------------------------
    def kernel_fault(
        self, rank: int, name: str, duration: float, now: float
    ) -> KernelFault | None:
        """Draw the fault (if any) striking one offloaded kernel."""
        c = self.config
        if not c.cpe_active:
            return None
        u = float(self._rng_cpe.random())
        site = f"r{rank}:{name}"
        if u < c.kernel_stuck_prob:
            self._record(now, "kernel_stuck", site)
            return KernelFault("stuck")
        u -= c.kernel_stuck_prob
        if u < c.dma_error_prob:
            self._record(now, "dma_error", site)
            return KernelFault("dma_error", error_frac=c.dma_error_frac)
        u -= c.dma_error_prob
        if u < c.kernel_slowdown_prob:
            self._record(now, "kernel_slowdown", site)
            return KernelFault("slowdown", factor=c.kernel_slowdown_factor)
        return None

    # -- network faults ----------------------------------------------------
    def message_fault(
        self, source: int, dest: int, nbytes: int, now: float
    ) -> MessageFault | None:
        """Draw the fault (if any) striking one matched p2p transfer."""
        c = self.config
        if not c.net_active:
            return None
        slow = 1.0
        if c.brownout_rank is not None and c.brownout_t0 <= now < c.brownout_t1:
            if source == c.brownout_rank or dest == c.brownout_rank:
                slow = c.brownout_factor
                self._record(now, "brownout", f"{source}->{dest}")
        drop = dup = False
        extra = 0.0
        if c.msg_drop_prob + c.msg_dup_prob + c.msg_delay_prob > 0.0:
            u = float(self._rng_net.random())
            site = f"{source}->{dest}:{nbytes}B"
            if u < c.msg_drop_prob:
                drop = True
                self._record(now, "msg_drop", site)
            elif u < c.msg_drop_prob + c.msg_dup_prob:
                dup = True
                self._record(now, "msg_dup", site)
            elif u < c.msg_drop_prob + c.msg_dup_prob + c.msg_delay_prob:
                extra = c.msg_delay_seconds
                self._record(now, "msg_delay", site)
        if not drop and not dup and extra == 0.0 and slow == 1.0:
            return None
        return MessageFault(drop=drop, duplicate=dup, extra_delay=extra, slow_factor=slow)

    def redrop(self, now: float, site: str) -> bool:
        """Whether a retransmission is dropped again (same drop rate)."""
        dropped = float(self._rng_net.random()) < self.config.msg_drop_prob
        if dropped:
            self._record(now, "msg_drop", site)
        return dropped

    def jitter(self) -> float:
        """Uniform [0, 1) draw for retransmission backoff jitter."""
        return float(self._rng_jit.random())

    # -- whole-rank failure ------------------------------------------------
    def on_step_begin(self, rank: int, step: int) -> None:
        """Called by each rank's scheduler when it begins a timestep.

        ``step`` is relative to the current run segment; the injector
        adds :attr:`step_offset` to compare against the configured global
        failure step.  Raises :class:`RankFailure` exactly once.
        """
        if not self._failure_armed:
            return
        c = self.config
        global_step = self.step_offset + step
        if rank == c.fail_rank and global_step >= (c.fail_at_step or 0):
            self._failure_armed = False
            self._record(float("nan"), "rank_failure", f"r{rank}@step{global_step}")
            raise RankFailure(rank, global_step)

    # -- accounting --------------------------------------------------------
    def _record(self, now: float, kind: str, site: str) -> None:
        self.injected.append(InjectedFault(now, kind, site))

    def counts_by_kind(self) -> dict[str, int]:
        """``{fault kind: number injected}`` over the whole run."""
        out: dict[str, int] = {}
        for f in self.injected:
            out[f.kind] = out.get(f.kind, 0) + 1
        return out
