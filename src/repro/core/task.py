"""Coarse tasks and detailed (task x patch) instances.

Users describe their problem "as a collection of dependent coarse tasks"
(paper Sec. II): each :class:`Task` declares the variables it *requires*
(with how many ghost cells, from which data warehouse) and those it
*computes*.  The task-graph compiler instantiates one
:class:`DetailedTask` per (task, patch) — plus one per rank for
reductions — and derives every dependency and MPI message from these
declarations; user code never touches communication.

The Sunway port splits a task's body in two (paper Sec. V-C):

* an optional **MPE part** (boundary conditions, small serial fix-ups),
  executed on the management core before offload, and
* the **kernel part**, offloaded to the CPE cluster for ``CPE_KERNEL``
  tasks or executed on the MPE otherwise.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import typing as _t

from repro.core.patch import Patch
from repro.core.varlabel import VarLabel
from repro.sunway.corerates import KernelCost

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.core.datawarehouse import DataWarehouse
    from repro.core.grid import Grid


class TaskKind(enum.Enum):
    """Where a task's kernel part executes."""

    #: Compute-intensive numerical kernel, offloadable to the CPE cluster.
    CPE_KERNEL = "cpe_kernel"
    #: Small task executed on the MPE (control, fix-ups, initialization).
    MPE = "mpe"
    #: Per-rank reduction combined across ranks with MPI allreduce.
    REDUCTION = "reduction"


@dataclasses.dataclass(frozen=True)
class Dependency:
    """One ``requires`` declaration."""

    label: VarLabel
    dw: str  # "old" or "new"
    ghosts: int = 0

    def __post_init__(self) -> None:
        if self.dw not in ("old", "new"):
            raise ValueError(f"dw must be 'old' or 'new', got {self.dw!r}")
        if self.ghosts < 0:
            raise ValueError(f"ghosts must be >= 0, got {self.ghosts}")


@dataclasses.dataclass
class TaskContext:
    """Everything a task action may touch, Uintah-callback style."""

    grid: "Grid"
    patch: Patch | None
    old_dw: "DataWarehouse | None"
    new_dw: "DataWarehouse"
    #: Simulation time at the *start* of the timestep.
    time: float
    dt: float
    step: int


class Task:
    """A user-declared coarse task.

    Parameters
    ----------
    name:
        Unique task name within a graph.
    kind:
        Execution placement, see :class:`TaskKind`.
    action:
        ``action(ctx: TaskContext)`` — the kernel part.  For
        ``REDUCTION`` tasks it is called once per local patch and must
        return that patch's partial value.  May be ``None`` for
        model-mode-only workloads.
    mpe_action:
        Optional MPE part run before the kernel part (e.g. boundary
        conditions), ``mpe_action(ctx)``.
    kernel_cost:
        Per-cell cost description used by the performance model
        (mandatory for ``CPE_KERNEL`` tasks).
    reduction_op:
        Binary operator combining reduction partials (``REDUCTION`` only).
    tile_fields_in / tile_fields_out:
        Arrays resident in LDM per tile with/without halo — sizes the
        tile working set (Burgers: 1 ghosted input + 1 output = 41.3 KB
        at 16x16x8).
    """

    def __init__(
        self,
        name: str,
        kind: TaskKind = TaskKind.CPE_KERNEL,
        action: _t.Callable[[TaskContext], _t.Any] | None = None,
        mpe_action: _t.Callable[[TaskContext], None] | None = None,
        kernel_cost: KernelCost | None = None,
        reduction_op: _t.Callable[[float, float], float] | None = None,
        tile_fields_in: int = 1,
        tile_fields_out: int = 1,
    ):
        if not name:
            raise ValueError("task needs a non-empty name")
        if kind is TaskKind.CPE_KERNEL and kernel_cost is None:
            raise ValueError(f"CPE kernel task {name!r} needs a kernel_cost")
        if kind is TaskKind.REDUCTION and reduction_op is None:
            raise ValueError(f"reduction task {name!r} needs a reduction_op")
        self.name = name
        self.kind = kind
        self.action = action
        self.mpe_action = mpe_action
        self.kernel_cost = kernel_cost
        self.reduction_op = reduction_op
        self.tile_fields_in = tile_fields_in
        self.tile_fields_out = tile_fields_out
        self.requires: list[Dependency] = []
        self.computes: list[VarLabel] = []

    # -- declaration builders ---------------------------------------------------
    def requires_(self, label: VarLabel, dw: str, ghosts: int = 0) -> "Task":
        """Declare an input; returns self for chaining."""
        self.requires.append(Dependency(label, dw, ghosts))
        return self

    def computes_(self, label: VarLabel) -> "Task":
        """Declare an output; returns self for chaining."""
        if any(existing.name == label.name for existing in self.computes):
            raise ValueError(f"task {self.name!r} already computes {label.name!r}")
        self.computes.append(label)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Task {self.name} kind={self.kind.value}>"


@dataclasses.dataclass
class DetailedTask:
    """One executable instance: a task bound to a patch (or, for
    reductions, to a whole rank)."""

    dt_id: int
    task: Task
    patch: Patch | None
    rank: int

    def __hash__(self) -> int:
        return self.dt_id

    @functools.cached_property
    def name(self) -> str:
        """Stable human-readable id used in traces (built once)."""
        where = f"p{self.patch.patch_id}" if self.patch is not None else f"r{self.rank}"
        return f"{self.task.name}@{where}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<DetailedTask {self.dt_id}:{self.name} rank={self.rank}>"
