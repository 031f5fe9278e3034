"""The simulation controller: timestepping over the task graph.

Mirrors Uintah's SimulationController: compile the task graph once, then
per timestep execute it through the scheduler and swap data warehouses
("the new datawarehouse becomes the old datawarehouse for the next
timestep", paper Sec. II).  All ranks of the simulated job live in one
:class:`~repro.des.Simulator`; each runs its own driver process, so ranks
genuinely proceed independently (no lock-step) with per-step MPI tag
namespacing keeping messages matched.

Timing protocol: initialization executes first (untimed), a barrier
aligns the ranks, then ``nsteps`` timesteps run and the wall time per
step is ``(last rank finish - barrier release) / nsteps`` — matching the
paper's "wall time per time step" indicator.
"""

from __future__ import annotations

import dataclasses
import math
import typing as _t

from repro.core.costs import SunwayCostModel
from repro.core.datawarehouse import DataWarehouse
from repro.core.grid import Grid
from repro.core.loadbalancer import LoadBalancer
from repro.core.schedulers.base import DeadlockError, SchedulerStats
from repro.core.schedulers.scheduler import SunwayScheduler
from repro.core.task import Task
from repro.core.taskgraph import TaskGraph
from repro.core.trace import Tracer
from repro.des import QueueDrained, Simulator
from repro.simmpi.comm import Comm
from repro.simmpi.network import Fabric, FabricConfig
from repro.sunway.athread import AthreadRuntime

#: DES events a run may process per unit of graph work
#: (:meth:`SimulationController.event_budget`): about 20 times what the
#: benchmark workloads use.
EVENTS_PER_UNIT = 100


@dataclasses.dataclass
class RunResult:
    """Everything a run produced: timings, counters, state, trace."""

    num_ranks: int
    nsteps: int
    #: Simulated seconds from the post-init barrier to the last rank's finish.
    total_time: float
    #: ``total_time / nsteps`` — the paper's performance indicator.
    time_per_step: float
    #: Per-step global durations (max over ranks).
    step_times: list[float]
    #: Merged scheduler counters over all ranks (timestep phase only).
    stats: SchedulerStats
    #: Per-rank counters.
    rank_stats: list[SchedulerStats]
    #: Counted kernel flops per timestep (all ranks).
    flops_per_step: float
    #: Total MPI messages / bytes on the fabric (including init, if any).
    messages_sent: int
    bytes_sent: int
    #: Final old data warehouses per rank (the last step's results).
    final_dws: list[DataWarehouse]
    trace: Tracer
    #: Simulation time value reached (t0 + nsteps*dt).
    sim_time: float
    #: Per-rank step-boundary clocks: ``rank_step_ends[r][s]`` is rank
    #: ``r``'s simulated time at the end of step ``s`` (index 0 = barrier
    #: release).  The telemetry ledger clips trace spans to these windows.
    rank_step_ends: list[list[float]] | None = None
    #: Per-rank cumulative counter copies at the same boundaries, taken
    #: in traced runs only (``None`` otherwise): ``rank_step_stats[r][s]``
    #: is ``vars(rank r's stats)`` at the end of step ``s``.  The ledger's
    #: per-step values are their deltas; every counter, ``mpi_retries``
    #: included, is bumped while the steps run, so the deltas sum to the
    #: rank's totals.
    rank_step_stats: list[list[dict]] | None = None
    #: DES events this ``run()`` processed (init graph included), counted
    #: by the simulator itself.
    des_events: int = 0

    @property
    def gflops(self) -> float:
        """Achieved Gflop/s, the paper's Sec. VII-E metric."""
        if self.time_per_step <= 0:
            return 0.0
        return self.flops_per_step / self.time_per_step / 1e9


class SimulationController:
    """Builds the simulated job and runs timesteps.

    Parameters
    ----------
    grid:
        The mesh with its patch layout.
    tasks:
        The per-timestep coarse tasks, in declaration order.
    init_tasks:
        Tasks producing the initial state (must not need ghost cells —
        initial conditions are evaluated pointwise).
    num_ranks:
        Core-groups (= MPI ranks, paper Sec. IV-A).
    mode:
        Scheduler mode: ``async`` / ``sync`` / ``mpe_only``.
    cost_model:
        A :class:`~repro.core.costs.SunwayCostModel`; default models the
        paper's non-vectorized accelerated variant.
    real:
        ``True`` executes real numerics on NumPy arrays; ``False`` runs
        the identical schedule charging costs only (paper-scale grids).
    """

    def __init__(
        self,
        grid: Grid,
        tasks: _t.Sequence[Task],
        init_tasks: _t.Sequence[Task],
        num_ranks: int = 1,
        mode: str = "async",
        cost_model: SunwayCostModel | None = None,
        real: bool = True,
        fabric_config: FabricConfig | None = None,
        trace_enabled: bool = False,
        scheduler_kwargs: dict | None = None,
        scheduler_factory: _t.Callable[..., SunwayScheduler] | None = None,
        memory_limit_bytes: int | None = None,
        faults=None,
        resilience=None,
        telemetry=None,
        validator=None,
    ):
        self.grid = grid
        self.num_ranks = num_ranks
        self.mode = mode
        self.real = real
        self.costs = cost_model if cost_model is not None else SunwayCostModel()

        #: Optional fault injector + resilience policy, threaded through
        #: the fabric, the athread runtimes, and the timestep schedulers.
        #: ``None`` keeps every fault-free code path byte-identical.
        self.faults = faults
        self.resilience = resilience
        #: Optional :class:`~repro.telemetry.metrics.MetricsRegistry` for
        #: the samples no counter holds; like faults, it reaches the
        #: *timestep* schedulers only — the init graph runs before the
        #: measured window.
        self.telemetry = telemetry
        #: Optional :class:`~repro.verify.ScheduleValidator`.  Same reach
        #: as telemetry — timestep schedulers only — plus the per-rank
        #: data warehouses, which it audits through their observer hook.
        self.validator = validator
        self.sim = Simulator()
        self.fabric = Fabric(
            self.sim,
            num_ranks,
            fabric_config,
            faults=faults,
            policy=resilience,
        )
        self.trace = Tracer(enabled=trace_enabled)
        self.assignment = LoadBalancer().assign(grid, num_ranks)
        self.graph = TaskGraph(grid, tasks, self.assignment, num_ranks)
        self.init_graph = TaskGraph(grid, init_tasks, self.assignment, num_ranks)
        if self.init_graph.messages:
            raise ValueError(
                "initialization tasks must not require ghost cells "
                "(they would collide with timestep message tags)"
            )

        if memory_limit_bytes is not None:
            self._check_memory(memory_limit_bytes)

        # Static fields: labels the timestep graph requires from the old
        # DW but never recomputes (e.g. coefficient fields produced at
        # initialization).  Uintah forwards such data across the DW swap;
        # the driver re-registers them in each new warehouse.
        computed = {lb.name for t in self.graph.tasks for lb in t.computes}
        self._static_labels = sorted(
            {
                dep.label.name
                for t in self.graph.tasks
                for dep in t.requires
                if dep.dw == "old"
                and not dep.label.is_reduction
                and dep.label.name not in computed
            }
        )

        sched_kwargs = dict(scheduler_kwargs or {})
        factory = scheduler_factory if scheduler_factory is not None else SunwayScheduler
        self.comms = [Comm(self.fabric, r) for r in range(num_ranks)]
        self.athreads = [
            AthreadRuntime(
                self.sim,
                self.costs.core_group,
                launch_latency=self.costs.launch_latency,
                num_groups=self.costs.cpe_groups,
            )
            for _ in range(num_ranks)
        ]
        for r, at in enumerate(self.athreads):
            at.faults = faults
            at.rank = r
        # Faults, resilience, telemetry and the validator reach only the
        # timestep schedulers (the init graph builds the pre-failure state,
        # before the measured window, and stays clean).
        self.schedulers = [
            factory(
                self.sim,
                r,
                self.graph,
                self.comms[r],
                self.athreads[r],
                self.costs,
                mode=mode,
                real=real,
                trace=self.trace,
                faults=faults,
                resilience=resilience,
                telemetry=telemetry,
                validator=validator,
                **sched_kwargs,
            )
            for r in range(num_ranks)
        ]
        self.fabric.rank_stats = [s.stats for s in self.schedulers]
        self.init_schedulers = [
            factory(
                self.sim,
                r,
                self.init_graph,
                self.comms[r],
                self.athreads[r],
                self.costs,
                mode=mode,
                real=real,
                trace=Tracer(enabled=False),
                **sched_kwargs,
            )
            for r in range(num_ranks)
        ]

    def _check_memory(self, limit_bytes: int) -> None:
        """Refuse configurations whose per-rank state exceeds the CG memory.

        Reproduces the paper's Table III footnote mechanism: "the problem
        size 64x64x512 crashes with memory allocation errors when using
        1 CG".  Demand = each rank's patches x ghosted patch cells x 8 B
        x (cell labels) x 2 warehouse generations.
        """
        labels = {
            lb.name
            for t in self.graph.tasks
            for lb in t.computes
            if not lb.is_reduction
        }
        nfields = max(len(labels), 1) * 2  # old + new generations
        per_patch = 1
        for e in self.grid.patch_extent:
            per_patch *= e + 2  # one ghost layer
        per_patch_bytes = per_patch * 8 * nfields
        npatches = [len(self.graph.local_patches(r)) for r in range(self.num_ranks)]
        worst_rank = max(range(self.num_ranks), key=npatches.__getitem__)
        demand = npatches[worst_rank] * per_patch_bytes
        if demand > limit_bytes:
            raise MemoryError(
                f"rank {worst_rank} needs {demand / 1024**3:.2f} GiB for "
                f"{npatches[worst_rank]} patches ({len(labels)} field(s), 2 "
                f"warehouses) but a CG offers {limit_bytes / 1024**3:.2f} GiB "
                "of usable field memory -- the paper's 'crashes with memory "
                "allocation errors' case; use more CGs"
            )

    def _deadlock(self, procs) -> DeadlockError:
        """Name the step, task states, awaited receives and in-flight
        kernels of every rank that never finished."""
        stuck = []
        for r, proc in enumerate(procs):
            if proc.triggered:
                continue
            sched = self.schedulers[r]
            where = f"step {sched.lifecycle.step}"
            if sched.lifecycle.step is None:
                sched, where = self.init_schedulers[r], "initialization"
            counts = sched.lifecycle.state_counts().items()
            states = ", ".join(f"{n} {name}" for name, n in counts)
            waits = [w for engine in sched.step_engines for w in engine.awaiting()]
            if waits:
                states += f" (awaiting {', '.join(waits)})"
            stuck.append(f"rank {r} {where}: {states}")
        return DeadlockError(
            "simulation ran out of events with ranks unfinished: " + "; ".join(stuck)
        )

    def event_budget(self, nsteps: int) -> int:
        """The runaway guard :meth:`run` hands :meth:`Simulator.run`.

        :data:`EVENTS_PER_UNIT` events per unit of graph work: each
        detailed task, message and copy of the timestep graph once per
        step, plus the initialization graph's once.  Runs of the
        benchmark workloads, faulted ones included, stay near 5 events
        per unit, so only a process stuck in a loop that never advances
        the clock reaches the budget, and it raises instead of spinning.
        """
        g, init = self.graph, self.init_graph
        per_step = len(g.detailed_tasks) + len(g.messages) + len(g.copies)
        once = len(init.detailed_tasks) + len(init.messages) + len(init.copies)
        return EVENTS_PER_UNIT * (per_step * nsteps + once)

    def _forward_static(self, old_dw: DataWarehouse, new_dw: DataWarehouse) -> None:
        """Carry never-recomputed fields across the warehouse swap."""
        wanted = set(self._static_labels)
        for var in old_dw.grid_variables():
            if var.label.name in wanted:
                new_dw.put(var)

    # ------------------------------------------------------------------ run
    def run(
        self, nsteps: int, dt: float, t0: float = 0.0, start_step: int = 0
    ) -> RunResult:
        """Initialize, then advance ``nsteps`` timesteps of size ``dt``.

        ``start_step`` offsets the step counter for restarted runs: the
        simulation time of step ``s`` is ``t0 + (start_step + s - 1)*dt``,
        computed with a single multiply so a restart from a checkpoint at
        ``start_step`` reproduces an uninterrupted run bit-exactly.
        """
        if nsteps < 1:
            raise ValueError(f"nsteps must be >= 1, got {nsteps}")
        if not (math.isfinite(dt) and dt > 0):
            raise ValueError(f"dt must be finite and > 0, got {dt}")
        if not math.isfinite(t0):
            raise ValueError(f"t0 must be finite, got {t0}")
        if start_step < 0:
            raise ValueError(f"start_step must be >= 0, got {start_step}")
        sim = self.sim
        R = self.num_ranks
        start_time = [0.0] * R
        end_time = [0.0] * R
        step_end: list[list[float]] = [[0.0] * (nsteps + 1) for _ in range(R)]
        # counter copies feed only the telemetry ledger, which needs spans
        step_stats: list[list[dict]] | None = (
            [[{}] * (nsteps + 1) for _ in range(R)] if self.trace.enabled else None
        )
        final_dws: list[DataWarehouse | None] = [None] * R

        def driver(rank: int):
            # Kernel faults strike timesteps only: the init schedulers
            # have no watchdog, so a stuck init kernel could never be
            # recovered.  (Network faults stay on throughout — dropped
            # messages are retransmitted at the fabric level regardless.)
            at = self.athreads[rank]
            at.faults = None
            dw0 = DataWarehouse(0, rank)
            if self.validator is not None:
                self.validator.watch_dw(dw0)
            yield from self.init_schedulers[rank].execute_timestep(
                step=0, time=t0 + start_step * dt, dt_value=dt, old_dw=None, new_dw=dw0
            )
            yield self.comms[rank].ibarrier().event
            at.faults = self.faults
            stats = self.schedulers[rank].stats
            start_time[rank] = sim.now
            step_end[rank][0] = sim.now
            if step_stats is not None:
                step_stats[rank][0] = dict(vars(stats))
            old = dw0
            for s in range(1, nsteps + 1):
                new = DataWarehouse(s, rank)
                if self.validator is not None:
                    self.validator.watch_dw(new)
                if self._static_labels and self.real:
                    self._forward_static(old, new)
                yield from self.schedulers[rank].execute_timestep(
                    step=s,
                    time=t0 + (start_step + s - 1) * dt,
                    dt_value=dt,
                    old_dw=old,
                    new_dw=new,
                    bootstrap=(s == 1),
                )
                step_end[rank][s] = sim.now
                if step_stats is not None:
                    step_stats[rank][s] = dict(vars(stats))
                old = new
            end_time[rank] = sim.now
            final_dws[rank] = old

        procs = [sim.process(driver(r), name=f"rank{r}") for r in range(R)]
        events_before = sim.events_run
        try:
            sim.run(until=sim.all_of(procs), max_events=self.event_budget(nsteps))
        except QueueDrained as exc:
            raise self._deadlock(procs) from exc

        t_start = max(start_time)
        t_end = max(end_time)
        total = t_end - t_start
        steps = []
        prev = max(step_end[r][0] for r in range(R))
        for s in range(1, nsteps + 1):
            cur = max(step_end[r][s] for r in range(R))
            steps.append(cur - prev)
            prev = cur

        merged = SchedulerStats()
        for sched in self.schedulers:
            merged.merge(sched.stats)

        return RunResult(
            num_ranks=R,
            nsteps=nsteps,
            total_time=total,
            time_per_step=total / nsteps,
            step_times=steps,
            stats=merged,
            rank_stats=[s.stats for s in self.schedulers],
            flops_per_step=merged.kernel_flops / nsteps,
            messages_sent=self.fabric.messages_sent,
            bytes_sent=self.fabric.bytes_sent,
            final_dws=_t.cast(list, final_dws),
            trace=self.trace,
            sim_time=t0 + (start_step + nsteps) * dt,
            rank_step_ends=step_end,
            rank_step_stats=step_stats,
            des_events=sim.events_run - events_before,
        )
