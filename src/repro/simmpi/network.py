"""The simulated interconnect fabric.

Models the Sunway proprietary network at the level the paper's evaluation
depends on: per-message cost ``software overhead + latency + bytes /
bandwidth`` charged once both sides of a point-to-point transfer have
posted, FIFO matching per ``(source, dest, tag)``, eager-protocol send
completion for small messages, and tree-shaped collectives.

Fault model
-----------
When a :class:`~repro.faults.injector.FaultInjector` is attached
(:attr:`Fabric.faults`), every matched point-to-point transfer asks it
for a fault: extra *delay*, a per-rank *brownout* slow-down window,
*duplication* (the wire carries the payload twice; the transport filters
the copy but pays its bytes), or a *drop*.  Dropped messages are
retransmitted by the reliable transport with exponential backoff plus
jitter (the parameters of the attached
:class:`~repro.faults.policies.ResiliencePolicy`, or of a default one)
until they get through — MPI semantics are preserved, only completion
times and the retry counters change.  Matching order is
decided at post time, so faults never mis-deliver a payload.
"""

from __future__ import annotations

import collections
import dataclasses
import math
import typing as _t

from repro.des import Simulator
from repro.simmpi.request import SendRequest, RecvRequest, CollectiveRequest


@dataclasses.dataclass(frozen=True)
class FabricConfig:
    """Interconnect cost parameters.

    Defaults follow Table II of the paper (16 GB/s bidirectional P2P,
    ~1 us latency) plus an MPI software overhead per message, which on
    Sunway's MPI is several microseconds.
    """

    #: Point-to-point bandwidth, bytes/s.
    bandwidth: float = 16e9
    #: Wire latency, seconds.
    latency: float = 1e-6
    #: MPI software overhead per message (matching, headers), seconds.
    sw_overhead: float = 6e-6
    #: Messages at or below this size complete the *send* side eagerly
    #: (buffered) at post time + overhead; larger sends complete with the
    #: transfer (rendezvous-like).
    eager_threshold: int = 32 * 1024

    def transfer_time(self, nbytes: int) -> float:
        """Seconds on the wire for an ``nbytes`` message."""
        return self.sw_overhead + self.latency + nbytes / self.bandwidth

    def allreduce_time(self, num_ranks: int, nbytes: int = 8) -> float:
        """Seconds for a tree allreduce (reduce + broadcast) of ``nbytes``."""
        if num_ranks <= 1:
            return 0.0
        hops = 2 * math.ceil(math.log2(num_ranks))
        return hops * (self.sw_overhead + self.latency + nbytes / self.bandwidth)


def _pop(table: dict, key: tuple):
    """Pop the oldest entry under ``key`` (``None`` if none); drop an emptied key."""
    fifo = table.get(key)
    if fifo is None:
        return None
    entry = fifo.popleft()
    if not fifo:
        del table[key]
    return entry


class Fabric:
    """The interconnect shared by all ranks of one simulated job.

    Ranks interact through their :class:`~repro.simmpi.comm.Comm`; the
    fabric performs matching, charges costs, and fires request events at
    the right simulated times.  Matching is FIFO per ``(source, dest,
    tag)``, and its state lives only while an operation is unmatched: a
    match pops the oldest waiting counterpart and deletes an emptied key,
    so the fabric holds O(operations in flight), not O(messages sent).
    """

    def __init__(
        self,
        sim: Simulator,
        num_ranks: int,
        config: FabricConfig | None = None,
        faults=None,
        policy=None,
    ):
        if num_ranks < 1:
            raise ValueError(f"need >= 1 rank, got {num_ranks}")
        self.sim = sim
        self.num_ranks = num_ranks
        self.config = config or FabricConfig()
        #: Unmatched sends ``(request, or None if to self, payload)`` and receives.
        self._sends: dict[tuple[int, int, int], collections.deque] = {}
        self._recvs: dict[tuple[int, int, int], collections.deque] = {}
        self._collectives: dict[tuple[str, int], list] = {}
        #: Completed epochs per kind; ranks post epochs in order, so they complete in order.
        self._epochs_done = {"allreduce": 0, "barrier": 0}
        self.messages_sent = 0
        self.bytes_sent = 0
        #: Receives whose completion was scheduled, per destination rank —
        #: bumped where a receive's event is triggered, so a rank's
        #: ``MPI_Test`` rescans its pending receives only when this moved.
        self.recvs_completed: list[int] = [0] * num_ranks
        #: Optional :class:`~repro.faults.injector.FaultInjector` and
        #: :class:`~repro.faults.policies.ResiliencePolicy`.
        self.faults = faults
        self.policy = policy
        #: Hot-path gate: skip the per-message injector query entirely
        #: when no network fault can ever fire (fault-free overhead).
        self._net_active = faults is not None and faults.config.net_active
        #: Retransmissions of dropped messages, attributed to the sender.
        self.retries_by_rank: list[int] = [0] * num_ranks
        #: Per-rank :class:`~repro.core.schedulers.base.SchedulerStats`
        #: whose ``mpi_retries`` each retransmission also bumps; the
        #: controller hands over its timestep schedulers' stats.
        self.rank_stats: list | None = None
        self.messages_dropped = 0
        self.messages_duplicated = 0
        self.messages_delayed = 0

    @property
    def mpi_retries(self) -> int:
        """Total retransmissions over all ranks."""
        return sum(self.retries_by_rank)

    # -- point to point -------------------------------------------------------
    def _check_rank(self, *ranks: int) -> None:
        for rank in ranks:
            if not 0 <= rank < self.num_ranks:
                raise ValueError(f"rank {rank} out of range [0, {self.num_ranks})")

    def post_send(
        self, source: int, dest: int, tag: int, nbytes: int, payload: object = None
    ) -> SendRequest:
        """Register a non-blocking send; returns its request."""
        if not (0 <= source < self.num_ranks and 0 <= dest < self.num_ranks):
            self._check_rank(source, dest)
        if nbytes < 0:
            raise ValueError(f"negative message size {nbytes}")
        req = SendRequest(self.sim, dest, tag, nbytes, source=source)
        self.messages_sent += 1
        self.bytes_sent += nbytes
        if source == dest:
            # Self-messages short-circuit through memory: cheap but not free.
            req.succeed(None, delay=0.0)
            self._deliver_local(source, dest, tag, payload)
            return req
        key = (source, dest, tag)
        recv = _pop(self._recvs, key)
        if recv is not None:
            self._match(req, payload, recv)
        else:
            self._sends.setdefault(key, collections.deque()).append((req, payload))
            if nbytes <= self.config.eager_threshold:
                # Eager protocol: the send buffer is copied out immediately.
                req.succeed(None, delay=self.config.sw_overhead)
        return req

    def post_recv(self, source: int, dest: int, tag: int) -> RecvRequest:
        """Register a non-blocking receive; returns its request."""
        if not (0 <= source < self.num_ranks and 0 <= dest < self.num_ranks):
            self._check_rank(source, dest)
        req = RecvRequest(self.sim, source, tag)
        key = (source, dest, tag)
        sent = _pop(self._sends, key)
        if sent is None:
            self._recvs.setdefault(key, collections.deque()).append(req)
        elif source == dest:
            req.succeed(sent[1], delay=0.0)
            self.recvs_completed[dest] += 1
        else:
            self._match(*sent, req)
        return req

    def _deliver_local(self, source: int, dest: int, tag: int, payload: object) -> None:
        key = (source, dest, tag)
        recv = _pop(self._recvs, key)
        if recv is not None:
            recv.succeed(payload, delay=0.0)
            self.recvs_completed[dest] += 1
        else:
            self._sends.setdefault(key, collections.deque()).append((None, payload))

    def _match(self, send_req: SendRequest, payload: object, recv_req: RecvRequest) -> None:
        # Transfer runs once both sides are posted (match happens "now").
        done_in = self.config.transfer_time(send_req.nbytes)
        if self._net_active:
            fault = self.faults.message_fault(
                send_req.source, send_req.dest, send_req.nbytes, self.sim.now
            )
            if fault is not None:
                done_in = done_in * fault.slow_factor + fault.extra_delay
                if fault.extra_delay > 0:
                    self.messages_delayed += 1
                if fault.duplicate:
                    # The wire carries the payload twice; the transport's
                    # sequence numbers filter the copy at delivery.
                    self.messages_duplicated += 1
                    self.bytes_sent += send_req.nbytes
                if fault.drop:
                    self.messages_dropped += 1
                    self.sim.process(
                        self._retransmit(send_req, payload, recv_req, done_in),
                        name=f"retx:{send_req.source}->{send_req.dest}",
                    )
                    return
        self._deliver(send_req, payload, recv_req, done_in)

    def _deliver(
        self, send_req: SendRequest, payload: object, recv_req: RecvRequest, done_in: float
    ) -> None:
        """Complete both sides of a matched transfer ``done_in`` from now."""
        recv_req.succeed(payload, delay=done_in)
        self.recvs_completed[send_req.dest] += 1
        if not send_req.complete:  # large message: rendezvous completion
            send_req.succeed(None, delay=done_in)

    def _retransmit(
        self, send_req: SendRequest, payload: object, recv_req: RecvRequest, wire_cost: float
    ):
        """Reliable-transport recovery of a dropped message.

        The sender detects the loss after the wire time plus an
        exponentially growing, jittered backoff, then resends; each
        resend may be dropped again (same drop rate) until the retry
        budget forces the message through — the simulated analogue of a
        link-level reliable channel underneath lossy injection.
        """
        pol = self.policy
        if pol is None:
            # imported here: repro.faults imports the harness, which
            # imports this module
            from repro.faults.policies import ResiliencePolicy

            pol = ResiliencePolicy()
        site = f"{send_req.source}->{send_req.dest}:{send_req.nbytes}B"
        attempt = 0
        while True:
            attempt += 1
            rto = pol.mpi_backoff_base * (2.0 ** (attempt - 1))
            rto *= 1.0 + pol.mpi_backoff_jitter * self.faults.jitter()
            yield wire_cost + rto
            self.retries_by_rank[send_req.source] += 1
            if self.rank_stats is not None:
                self.rank_stats[send_req.source].mpi_retries += 1
            self.bytes_sent += send_req.nbytes
            if attempt >= pol.mpi_max_retries or not self.faults.redrop(self.sim.now, site):
                break
            self.messages_dropped += 1
        self._deliver(send_req, payload, recv_req, wire_cost)

    # -- collectives -------------------------------------------------------------
    def post_allreduce(
        self,
        rank: int,
        epoch: int,
        value: float,
        op: _t.Callable[[float, float], float],
    ) -> CollectiveRequest:
        """Register one rank's contribution to allreduce ``epoch``.

        All ranks must call with the same epoch (the communicator numbers
        them); the result fires on every rank at the same simulated time,
        reduced deterministically in rank order.
        """
        req = CollectiveRequest(self.sim, "iallreduce", epoch)
        key = ("allreduce", epoch)
        if epoch < self._epochs_done["allreduce"]:
            raise RuntimeError(f"allreduce epoch {epoch} already completed (over-posted)")
        entries = self._collectives.setdefault(key, [])
        entries.append((rank, value, op, req))
        if len(entries) == self.num_ranks:
            self._epochs_done["allreduce"] += 1
            entries.sort(key=lambda e: e[0])
            acc = entries[0][1]
            the_op = entries[0][2]
            for _, v, _, _ in entries[1:]:
                acc = the_op(acc, v)
            delay = self.config.allreduce_time(self.num_ranks)
            for _, _, _, r in entries:
                r.succeed(acc, delay=delay)
            del self._collectives[key]
        return req

    def post_barrier(self, rank: int, epoch: int) -> CollectiveRequest:
        """Register one rank's arrival at barrier ``epoch``."""
        req = CollectiveRequest(self.sim, "ibarrier", epoch)
        key = ("barrier", epoch)
        if epoch < self._epochs_done["barrier"]:
            raise RuntimeError(f"barrier epoch {epoch} already completed (over-posted)")
        entries = self._collectives.setdefault(key, [])
        entries.append(req)
        if len(entries) == self.num_ranks:
            self._epochs_done["barrier"] += 1
            delay = self.config.allreduce_time(self.num_ranks, nbytes=0)
            for r in entries:
                r.succeed(None, delay=delay)
            del self._collectives[key]
        return req
