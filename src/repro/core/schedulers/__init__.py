"""Task schedulers: the paper's Sunway-specific scheduler and its modes.

One scheduler implementation (:class:`~repro.core.schedulers.scheduler.
SunwayScheduler`) supports the three operating modes of paper Sec. V-C,
chosen with its ``mode`` keyword and resolved at construction to three
plain fields — ``offloads`` (kernels go to the CPE cluster), ``blocking``
(the MPE waits for each kernel) and ``num_groups`` (offload slots):

* ``"async"`` — the contribution: offload a kernel to the CPE cluster and
  *return immediately*, overlapping kernel execution with MPI progress,
  ghost packing, reductions and other MPE tasks (variants ``acc.async``,
  ``acc_simd.async``);
* ``"sync"`` — offload, then spin on the completion flag: no overlap
  (variants ``acc.sync``, ``acc_simd.sync``);
* ``"mpe_only"`` — execute kernels on the MPE without offloading
  (variant ``host.sync``).

The baseline :class:`~repro.core.schedulers.unified.UnifiedHostScheduler`
(Uintah's Unified Scheduler) shares the same trunk and communication
engine.  The layered machinery underneath — lifecycle events, the
communication and offload engines, selection policies — is documented
in ``docs/ARCHITECTURE.md``.
"""

from repro.core.schedulers.base import (
    DeadlockError,
    ReadinessTracker,
    SchedulerCore,
    SchedulerStats,
    StepContext,
)
from repro.core.schedulers.lifecycle import TaskLifecycle, TaskState
from repro.core.schedulers.scheduler import SunwayScheduler
from repro.core.schedulers.selection import POLICIES, select_key

__all__ = [
    "SchedulerStats",
    "DeadlockError",
    "ReadinessTracker",
    "SchedulerCore",
    "StepContext",
    "SunwayScheduler",
    "TaskLifecycle",
    "TaskState",
    "POLICIES",
    "select_key",
]
