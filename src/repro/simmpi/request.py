"""Non-blocking request objects returned by the simulated MPI calls."""

from __future__ import annotations

from repro.des import Simulator
from repro.des.event import Event


class Request:
    """Base class: a pending non-blocking MPI operation.

    A request owns a DES :attr:`event` that fires at the operation's
    completion time.  :attr:`complete` is the *host-side* observation
    (``MPI_Test``): it is True only once the completion time has been
    reached — reading it is how a rank "progresses" MPI in the sense of
    the paper.
    """

    def __init__(self, sim: Simulator, kind: str, tag: int):
        self.sim = sim
        self.kind = kind
        self.tag = tag
        self.event: Event = sim.event(name=f"{kind}(tag={tag})")
        self.posted_at = sim.now

    @property
    def complete(self) -> bool:
        """Whether the operation has finished (event fired)."""
        return self.event.triggered

    @property
    def value(self) -> object:
        """The operation's result (payload for receives, reduced value
        for collectives); only valid once complete."""
        if not self.complete:
            raise RuntimeError(f"{self!r} is not complete")
        return self.event.value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "complete" if self.complete else "pending"
        return f"<{self.__class__.__name__} {self.kind} tag={self.tag} {state}>"


class SendRequest(Request):
    """A pending ``isend``."""

    def __init__(self, sim: Simulator, dest: int, tag: int, nbytes: int, source: int = 0):
        super().__init__(sim, "isend", tag)
        self.source = source
        self.dest = dest
        self.nbytes = nbytes


class RecvRequest(Request):
    """A pending ``irecv``; its value is the sent payload."""

    def __init__(self, sim: Simulator, source: int, tag: int):
        super().__init__(sim, "irecv", tag)
        self.source = source


class CollectiveRequest(Request):
    """A pending non-blocking collective (allreduce / barrier)."""

    def __init__(self, sim: Simulator, kind: str, epoch: int):
        super().__init__(sim, kind, tag=epoch)
        self.epoch = epoch
