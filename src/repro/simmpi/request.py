"""Non-blocking request objects returned by the simulated MPI calls."""

from __future__ import annotations

from repro.des import Simulator
from repro.des.event import _PENDING, Event


class Request(Event):
    """Base class: a pending non-blocking MPI operation.

    A request *is* the DES event that fires at the operation's completion
    time (:attr:`event` returns the request itself), and its value is the
    operation's result: the payload for receives, the reduced value for
    collectives.

    :attr:`complete` is the *host-side* observation (``MPI_Test``).  It is
    True as soon as the fabric has *scheduled* the completion, which for a
    matched transfer happens when both sides have posted — before the
    completion time is reached.  This is a known model defect: a rank can
    see a receive complete, and unpack its payload, before the data has
    arrived in simulated time (see ROADMAP.md and
    ``tests/simmpi/test_simmpi.py::test_recv_not_complete_before_data_arrives``).
    """

    __slots__ = ("tag",)

    #: Operation name, for ``repr``.
    kind = "request"

    def __init__(self, sim: Simulator, tag: int):
        super().__init__(sim)
        self.tag = tag

    @property
    def event(self) -> Event:
        """The completion event: the request itself."""
        return self

    @property
    def complete(self) -> bool:
        """Whether the fabric has scheduled the operation's completion."""
        return self._value is not _PENDING

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "complete" if self.complete else "pending"
        return f"<{self.__class__.__name__} {self.kind} tag={self.tag} {state}>"


class SendRequest(Request):
    """A pending ``isend``."""

    __slots__ = ("source", "dest", "nbytes")
    kind = "isend"

    def __init__(self, sim: Simulator, dest: int, tag: int, nbytes: int, source: int = 0):
        super().__init__(sim, tag)
        self.source = source
        self.dest = dest
        self.nbytes = nbytes


class RecvRequest(Request):
    """A pending ``irecv``; its value is the sent payload."""

    __slots__ = ("source",)
    kind = "irecv"

    def __init__(self, sim: Simulator, source: int, tag: int):
        super().__init__(sim, tag)
        self.source = source


class CollectiveRequest(Request):
    """A pending non-blocking collective (allreduce / barrier)."""

    __slots__ = ("kind", "epoch")

    def __init__(self, sim: Simulator, kind: str, epoch: int):
        super().__init__(sim, tag=epoch)
        self.kind = kind
        self.epoch = epoch
