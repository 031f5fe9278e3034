"""Simulated MPI over the Sunway interconnect model.

Uintah drives inter-node progress with non-blocking MPI (`Sec. V-C`_ of
the paper: post receives early, test sends/receives from the scheduler
loop, reductions as tasks).  This package provides exactly the API surface
the schedulers need, shaped after ``mpi4py`` naming, on top of the
discrete-event simulator:

* :class:`~repro.simmpi.network.Fabric` — the interconnect: per-message
  time = ``latency + software overhead + bytes / bandwidth`` once *both*
  sides have posted; message matching by ``(source, dest, tag)``.
* :class:`~repro.simmpi.comm.Comm` — per-rank communicator with
  ``isend`` / ``irecv`` and non-blocking collectives (``iallreduce``,
  ``ibarrier``); a request's ``complete`` flag is the ``MPI_Test`` probe.

Progression semantics: the paper stresses (citing Denis & Trahay) that
non-blocking transfers "do not progress without the help of the host
processor".  Completion *times* are computed by the fabric, but a
scheduler only *observes* completion at its polling points — which is
precisely why the synchronous MPE+CPE mode (which spins on the kernel
flag without testing MPI) loses to the asynchronous mode.

.. _Sec. V-C: the MPE task scheduler steps in the paper
"""

from repro.simmpi.network import Fabric, FabricConfig
from repro.simmpi.comm import Comm
from repro.simmpi.request import Request, SendRequest, RecvRequest, CollectiveRequest

__all__ = [
    "Fabric",
    "FabricConfig",
    "Comm",
    "Request",
    "SendRequest",
    "RecvRequest",
    "CollectiveRequest",
]
