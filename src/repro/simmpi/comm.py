"""Per-rank communicator, shaped after mpi4py's lowercase API."""

from __future__ import annotations

import operator
import typing as _t

from repro.simmpi.network import Fabric
from repro.simmpi.request import SendRequest, RecvRequest, CollectiveRequest


class Comm:
    """One rank's handle on the fabric (``MPI_COMM_WORLD`` analogue).

    Creation: build one :class:`~repro.simmpi.network.Fabric`, then one
    ``Comm(fabric, rank)`` per simulated rank.  Methods mirror mpi4py's
    pickled-object spelling (``isend`` / ``irecv`` / ``iallreduce``) since
    payloads here are arbitrary Python objects with an explicit modelled
    byte size.
    """

    def __init__(self, fabric: Fabric, rank: int):
        if not 0 <= rank < fabric.num_ranks:
            raise ValueError(f"rank {rank} out of range [0, {fabric.num_ranks})")
        self.fabric = fabric
        self.rank = rank
        self._allreduce_epoch = 0
        self._barrier_epoch = 0

    @property
    def size(self) -> int:
        """Number of ranks on the fabric."""
        return self.fabric.num_ranks

    # -- point to point ------------------------------------------------------
    def isend(self, dest: int, tag: int, nbytes: int, payload: object = None) -> SendRequest:
        """Non-blocking send of ``nbytes`` (payload optional, real mode)."""
        return self.fabric.post_send(self.rank, dest, tag, nbytes, payload)

    def irecv(self, source: int, tag: int) -> RecvRequest:
        """Non-blocking receive matching ``(source, tag)``."""
        return self.fabric.post_recv(source, self.rank, tag)

    # -- collectives ------------------------------------------------------------
    def iallreduce(
        self, value: float, op: _t.Callable[[float, float], float] = operator.add
    ) -> CollectiveRequest:
        """Non-blocking allreduce.  Epochs are counted per rank, so every
        rank must issue the same sequence of collectives (MPI ordering
        rules)."""
        epoch = self._allreduce_epoch
        self._allreduce_epoch += 1
        return self.fabric.post_allreduce(self.rank, epoch, value, op)

    def ibarrier(self) -> CollectiveRequest:
        """Non-blocking barrier."""
        epoch = self._barrier_epoch
        self._barrier_epoch += 1
        return self.fabric.post_barrier(self.rank, epoch)
