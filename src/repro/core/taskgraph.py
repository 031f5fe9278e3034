"""The distributed task-graph compiler.

"Uintah builds a distributed task graph and uses a scheduler to run
[tasks] in an out of order manner" (paper Sec. II).  Dependencies between
detailed tasks come from two sources: the coarse-task ``requires`` /
``computes`` declarations, and the neighbour-value (ghost cell)
dependencies among patches; remote dependencies become MPI messages.

This compiler produces, from ``(grid, tasks, patch->rank assignment)``:

* one :class:`~repro.core.task.DetailedTask` per (task, patch) — or per
  (task, rank) for reductions;
* **internal dependencies**: same-rank producer -> consumer edges;
* :class:`MessageSpec`\\ s: cross-rank ghost transfers with deterministic
  tags agreed on by both sides (sender and receiver hold the *same* spec
  object — in real Uintah both sides derive identical specs from the
  same global graph metadata);
* :class:`CopySpec`\\ s: intra-rank ghost copies the MPE performs.

Old-DW inputs (the previous step's results) are owned by the producing
rank's old data warehouse, so their messages have no producer task: the
owner packs and sends them at step start — exactly the paper's scheduler
step 3(a) posting receives "for tasks depending on remote data" right
away.
"""

from __future__ import annotations

import dataclasses
import functools
import typing as _t

from repro.core.grid import Grid
from repro.core.patch import Patch, Region, FACES
from repro.core.task import Task, TaskKind, DetailedTask
from repro.core.varlabel import VarLabel


@dataclasses.dataclass
class MessageSpec:
    """One cross-rank ghost-slab transfer feeding a timestep.

    ``cross_step`` messages carry old-DW data: the slab is produced by a
    task of timestep ``s`` and consumed in timestep ``s+1``.  The sender
    posts them as soon as the producer finishes (paper step 3(b)i), so
    packing and transfer overlap the remaining kernels of step ``s`` —
    the pipelining that gives the asynchronous scheduler its win at
    scale.  The first timestep's instances are instead sent at step
    start from the initialized old DW (bootstrap).
    """

    tag: int
    label: VarLabel
    dw: str  # "old" or "new"
    region: Region
    from_patch: Patch
    to_patch: Patch
    from_rank: int
    to_rank: int
    #: Producing detailed task (for cross-step messages: the previous
    #: step's instance of that task; None if no task computes the label).
    producer: DetailedTask | None
    consumer: DetailedTask
    #: True when produced in step s and consumed in step s+1 (old-DW data).
    cross_step: bool = False

    @functools.cached_property
    def nbytes(self) -> int:
        """Message payload size."""
        return self.region.num_cells * self.label.itemsize

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Msg tag={self.tag} {self.label.name}/{self.dw} "
            f"p{self.from_patch.patch_id}(r{self.from_rank}) -> "
            f"p{self.to_patch.patch_id}(r{self.to_rank}) {self.region.num_cells} cells>"
        )


@dataclasses.dataclass
class CopySpec:
    """One intra-rank ghost-slab copy performed by the MPE."""

    label: VarLabel
    dw: str
    region: Region
    from_patch: Patch
    to_patch: Patch
    rank: int
    producer: DetailedTask | None
    consumer: DetailedTask

    @property
    def ncells(self) -> int:
        """Cells copied."""
        return self.region.num_cells


class TaskGraph:
    """The compiled graph for one timestep structure.

    The same graph object is executed every timestep until the patch
    distribution changes (Sec. II: "built at the first timestep, and
    remains unchanged"), with per-step MPI tags namespaced by
    ``step * graph.num_tags``.
    """

    def __init__(
        self,
        grid: Grid,
        tasks: _t.Sequence[Task],
        assignment: dict[int, int],
        num_ranks: int,
    ):
        names = [t.name for t in tasks]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate task names in graph: {names}")
        missing = [p.patch_id for p in grid.patches() if p.patch_id not in assignment]
        if missing:
            raise ValueError(f"assignment misses patches {missing[:5]}...")
        if any(not 0 <= r < num_ranks for r in assignment.values()):
            raise ValueError("assignment references ranks outside range")
        self.grid = grid
        self.tasks = list(tasks)
        self.assignment = dict(assignment)
        self.num_ranks = num_ranks

        self.detailed_tasks: list[DetailedTask] = []
        self.internal_deps: dict[int, set[int]] = {}
        self.messages: list[MessageSpec] = []
        self.copies: list[CopySpec] = []
        self._compile()

    # -- compilation -------------------------------------------------------------
    def _compile(self) -> None:
        grid = self.grid
        patches = grid.patches()
        # Patches per rank, grouped once: the reductions' local inputs
        # and the per-rank views both read this grouping.
        self._local_patches: dict[int, list[Patch]] = {r: [] for r in range(self.num_ranks)}
        for patch in patches:
            self._local_patches[self.assignment[patch.patch_id]].append(patch)
        # Producer map: label name -> coarse task computing it (in order).
        producer_of: dict[str, Task] = {}
        for task in self.tasks:
            for label in task.computes:
                if label.name in producer_of:
                    raise ValueError(
                        f"label {label.name!r} computed by both "
                        f"{producer_of[label.name].name!r} and {task.name!r}"
                    )
                producer_of[label.name] = task

        # Detailed task instantiation, deterministic order.
        dt_of: dict[tuple[str, int], DetailedTask] = {}  # (task, patch) kinds
        red_dt: dict[tuple[str, int], DetailedTask] = {}  # (task, rank)
        task_index = {t.name: i for i, t in enumerate(self.tasks)}
        for task in self.tasks:
            if task.kind is TaskKind.REDUCTION:
                for rank in range(self.num_ranks):
                    dt = DetailedTask(len(self.detailed_tasks), task, None, rank)
                    self.detailed_tasks.append(dt)
                    red_dt[(task.name, rank)] = dt
            else:
                for patch in patches:
                    rank = self.assignment[patch.patch_id]
                    dt = DetailedTask(len(self.detailed_tasks), task, patch, rank)
                    self.detailed_tasks.append(dt)
                    dt_of[(task.name, patch.patch_id)] = dt
        self.internal_deps = {dt.dt_id: set() for dt in self.detailed_tasks}

        def producer_dt(label: VarLabel, patch: Patch) -> DetailedTask:
            ptask = producer_of.get(label.name)
            if ptask is None:
                raise ValueError(f"no task computes {label.name!r} required from new DW")
            return dt_of[(ptask.name, patch.patch_id)]

        def check_order(consumer_task: Task, label: VarLabel) -> None:
            ptask = producer_of.get(label.name)
            if ptask is not None and task_index[ptask.name] >= task_index[consumer_task.name]:
                raise ValueError(
                    f"task {consumer_task.name!r} requires {label.name!r} from the new DW "
                    f"but its producer {ptask.name!r} is declared later"
                )

        tag_counter = 0
        for task in self.tasks:
            if task.kind is TaskKind.REDUCTION:
                tag_counter = self._compile_reduction(task, producer_of, dt_of, red_dt)
                continue
            for patch in patches:
                consumer = dt_of[(task.name, patch.patch_id)]
                crank = consumer.rank
                for dep in task.requires:
                    if dep.label.is_reduction:
                        # depends on this rank's reduction detailed task
                        ptask = producer_of.get(dep.label.name)
                        if ptask is None:
                            raise ValueError(f"no task computes reduction {dep.label.name!r}")
                        if dep.dw == "new":
                            self.internal_deps[consumer.dt_id].add(
                                red_dt[(ptask.name, crank)].dt_id
                            )
                        continue
                    if dep.dw == "new":
                        check_order(task, dep.label)
                        self.internal_deps[consumer.dt_id].add(
                            producer_dt(dep.label, patch).dt_id
                        )
                    if dep.ghosts > 0:
                        for axis, side in FACES:
                            nb = grid.neighbor(patch, axis, side)
                            if nb is None:
                                continue  # physical boundary: BCs, not exchange
                            region = patch.ghost_region(axis, side, dep.ghosts)
                            prank = self.assignment[nb.patch_id]
                            if dep.dw == "new":
                                prod = producer_dt(dep.label, nb)
                                cross = False
                            else:
                                # old-DW data: produced by the previous
                                # step's instance of the producing task
                                ptask = producer_of.get(dep.label.name)
                                prod = (
                                    dt_of[(ptask.name, nb.patch_id)]
                                    if ptask is not None
                                    else None
                                )
                                cross = prod is not None
                            if prank == crank:
                                if prod is not None and dep.dw == "new":
                                    self.internal_deps[consumer.dt_id].add(prod.dt_id)
                                self.copies.append(
                                    CopySpec(
                                        label=dep.label,
                                        dw=dep.dw,
                                        region=region,
                                        from_patch=nb,
                                        to_patch=patch,
                                        rank=crank,
                                        # old-DW local copies run at step
                                        # start (data already present)
                                        producer=prod if dep.dw == "new" else None,
                                        consumer=consumer,
                                    )
                                )
                            else:
                                self.messages.append(
                                    MessageSpec(
                                        tag=tag_counter,
                                        label=dep.label,
                                        dw=dep.dw,
                                        region=region,
                                        from_patch=nb,
                                        to_patch=patch,
                                        from_rank=prank,
                                        to_rank=crank,
                                        producer=prod,
                                        consumer=consumer,
                                        cross_step=cross,
                                    )
                                )
                                tag_counter += 1
        self.num_tags = max(tag_counter, 1)
        self._index_views()

    def _compile_reduction(self, task, producer_of, dt_of, red_dt) -> int:
        """Reduction tasks depend on every local producer of their inputs."""
        for rank in range(self.num_ranks):
            consumer = red_dt[(task.name, rank)]
            for dep in task.requires:
                if dep.ghosts:
                    raise ValueError(
                        f"reduction task {task.name!r} cannot require ghost cells"
                    )
                if dep.dw != "new" or dep.label.is_reduction:
                    continue
                ptask = producer_of.get(dep.label.name)
                if ptask is None:
                    raise ValueError(
                        f"reduction task {task.name!r} requires {dep.label.name!r} "
                        "which no task computes"
                    )
                for patch in self._local_patches[rank]:
                    self.internal_deps[consumer.dt_id].add(
                        dt_of[(ptask.name, patch.patch_id)].dt_id
                    )
        # reductions use collectives, not tagged messages
        return len(self.messages)

    # -- per-rank views ------------------------------------------------------------
    def _index_views(self) -> None:
        """Build every per-rank and per-task lookup once per compiled graph;
        the schedulers only read these views, every timestep."""
        self._local: dict[int, list[DetailedTask]] = {r: [] for r in range(self.num_ranks)}
        for dt in self.detailed_tasks:
            self._local[dt.rank].append(dt)
        # internal edges are same-rank, so visiting consumers in global
        # order lists each producer's dependents in local-task order
        self._dependents: dict[int, list[DetailedTask]] = {
            dt.dt_id: [] for dt in self.detailed_tasks
        }
        for other in self.detailed_tasks:
            for dep in self.internal_deps[other.dt_id]:
                if self.detailed_tasks[dep].rank == other.rank:
                    self._dependents[dep].append(other)
        self._recvs: dict[int, list[MessageSpec]] = {dt.dt_id: [] for dt in self.detailed_tasks}
        self._sends_startup: dict[int, list[MessageSpec]] = {
            r: [] for r in range(self.num_ranks)
        }
        self._bootstrap_sends: dict[int, list[MessageSpec]] = {
            r: [] for r in range(self.num_ranks)
        }
        self._sends_after: dict[int, list[MessageSpec]] = {
            dt.dt_id: [] for dt in self.detailed_tasks
        }
        for msg in self.messages:
            self._recvs[msg.consumer.dt_id].append(msg)
            if msg.producer is None:
                self._sends_startup[msg.from_rank].append(msg)
            else:
                self._sends_after[msg.producer.dt_id].append(msg)
                if msg.cross_step:
                    # the first timestep has no previous step: its old-DW
                    # slabs are sent at step start from the init data
                    self._bootstrap_sends[msg.from_rank].append(msg)
        self._copies_startup: dict[int, list[CopySpec]] = {r: [] for r in range(self.num_ranks)}
        self._copies_after: dict[int, list[CopySpec]] = {
            dt.dt_id: [] for dt in self.detailed_tasks
        }
        self._copies_for: dict[int, list[CopySpec]] = {
            dt.dt_id: [] for dt in self.detailed_tasks
        }
        for cp in self.copies:
            if cp.producer is None:
                self._copies_startup[cp.rank].append(cp)
            else:
                self._copies_after[cp.producer.dt_id].append(cp)
            self._copies_for[cp.consumer.dt_id].append(cp)
        self._recvs_on: dict[int, list[MessageSpec]] = {
            r: [m for dt in self._local[r] for m in self._recvs[dt.dt_id]]
            for r in range(self.num_ranks)
        }
        self._old_dw_consumers = self._count_old_dw_consumers()

    def local_tasks(self, rank: int) -> list[DetailedTask]:
        """Detailed tasks owned by ``rank`` (declaration order)."""
        return self._local[rank]

    def local_patches(self, rank: int) -> list[Patch]:
        """Patches assigned to ``rank``, in patch-id order (shared; do not
        mutate)."""
        return self._local_patches[rank]

    def recvs_for(self, dt: DetailedTask) -> list[MessageSpec]:
        """Incoming messages the task must see before running."""
        return self._recvs[dt.dt_id]

    def recvs_on(self, rank: int) -> list[MessageSpec]:
        """Every incoming message of ``rank``'s tasks, in local-task order
        (shared; do not mutate)."""
        return self._recvs_on[rank]

    def startup_sends(self, rank: int) -> list[MessageSpec]:
        """Producerless messages ``rank`` sends at the start of every step."""
        return self._sends_startup[rank]

    def bootstrap_sends(self, rank: int) -> list[MessageSpec]:
        """Cross-step messages sent at step start on the *first* timestep
        only (their producers ran in the initialization graph)."""
        return self._bootstrap_sends[rank]

    def sends_after(self, dt: DetailedTask) -> list[MessageSpec]:
        """Messages that become sendable once ``dt`` completes."""
        return self._sends_after[dt.dt_id]

    def startup_copies(self, rank: int) -> list[CopySpec]:
        """Old-DW intra-rank ghost copies performed at step start."""
        return self._copies_startup[rank]

    def copies_after(self, dt: DetailedTask) -> list[CopySpec]:
        """Intra-rank copies unlocked by ``dt`` completing."""
        return self._copies_after[dt.dt_id]

    def copies_for(self, dt: DetailedTask) -> list[CopySpec]:
        """Intra-rank copies that must land before ``dt`` may run."""
        return self._copies_for[dt.dt_id]

    def old_dw_consumers(self, rank: int) -> dict[tuple[str, int], int]:
        """Steady-state consumer counts of old-DW grid variables on ``rank``.

        The scheduler decrements these as tasks read their own patch's
        old data and as intra-rank ghost copies read their source; when a
        count hits zero the variable is scrubbed from the old DW —
        Uintah's scrubbing memory reclamation.  Bootstrap-step sends add
        their own counts at runtime (they also read the old DW).  Returns
        a fresh dict the caller may consume.
        """
        return dict(self._old_dw_consumers[rank])

    def _count_old_dw_consumers(self) -> dict[int, dict[tuple[str, int], int]]:
        counts: dict[int, dict[tuple[str, int], int]] = {r: {} for r in range(self.num_ranks)}
        for dt in self.detailed_tasks:
            if dt.patch is None:
                continue
            mine = counts[dt.rank]
            for dep in dt.task.requires:
                if dep.dw == "old" and not dep.label.is_reduction:
                    key = (dep.label.name, dt.patch.patch_id)
                    mine[key] = mine.get(key, 0) + 1
        for cp in self.copies:
            if cp.dw == "old":
                mine = counts[cp.rank]
                key = (cp.label.name, cp.from_patch.patch_id)
                mine[key] = mine.get(key, 0) + 1
        return counts

    def dependents_of(self, dt: DetailedTask) -> list[DetailedTask]:
        """Same-rank tasks with an internal edge from ``dt``, in local-task
        order (shared; do not mutate)."""
        return self._dependents[dt.dt_id]

    # -- invariants (used by tests and controller asserts) ----------------------------
    def validate_acyclic(self) -> None:
        """Internal dependencies must form a DAG (they do by construction;
        this re-checks after any manual graph surgery)."""
        state: dict[int, int] = {}

        def visit(node: int) -> None:
            state[node] = 1
            for dep in self.internal_deps[node]:
                s = state.get(dep, 0)
                if s == 1:
                    raise ValueError(f"cycle through detailed task {node}")
                if s == 0:
                    visit(dep)
            state[node] = 2

        for dt in self.detailed_tasks:
            if state.get(dt.dt_id, 0) == 0:
                visit(dt.dt_id)
