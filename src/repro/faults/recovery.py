"""Checkpoint/restart recovery from whole-rank failures.

:class:`ResilientRunner` drives a simulation the way a production Uintah
job survives node loss: it advances in **segments** of
``policy.checkpoint_every`` timesteps, archiving a UDA checkpoint
(:mod:`repro.io.uda`) after each.  When the
:class:`~repro.faults.injector.FaultInjector` kills a rank
(:class:`~repro.faults.injector.RankFailure` propagating out of
``Simulator.run``), the runner discards the poisoned segment, reloads the
last checkpoint, rebuilds the job on the **surviving layout** (one rank
fewer — the load balancer redistributes the patches) and replays from the
archived step.  Restart is bit-exact (see ``examples/checkpoint_restart``),
so the recovered run's physics matches an uninterrupted one to the last
bit; only the wall-clock accounting shows the failure.

The runner is application-agnostic: it takes a ``problem_factory`` that
builds the component for a grid, and reconstructs the restart graph from
whatever grid variables the checkpoint holds.
"""

from __future__ import annotations

import tempfile
import typing as _t

from repro.core.controller import RunResult, SimulationController
from repro.core.grid import Grid
from repro.core.schedulers.base import SchedulerStats
from repro.core.varlabel import VarLabel
from repro.faults.injector import FaultConfig, FaultInjector, RankFailure
from repro.faults.policies import ResiliencePolicy
from repro.faults.report import ResilienceReport
from repro.io.uda import UdaArchive, restart_tasks


class ResilientRunner:
    """Runs ``nsteps`` timesteps, surviving injected whole-rank failures.

    Parameters
    ----------
    problem_factory:
        ``Grid -> problem``; the problem must expose ``tasks()`` and
        ``init_tasks()`` (the repo's component convention).
    grid:
        Mesh for the initial (pre-failure) layout.
    nsteps, dt:
        Global timestep count and size.
    num_ranks:
        Core-groups at job start; each recovery drops one.
    config:
        Fault configuration (``None`` injects nothing — the runner then
        degenerates to a periodically-checkpointing driver).
    policy:
        Resilience knobs; ``checkpoint_every`` sets the segment length.
    archive_root:
        UDA archive directory (a temp dir by default).
    controller_kwargs:
        Extra keyword arguments forwarded to every
        :class:`~repro.core.controller.SimulationController` built.
    """

    def __init__(
        self,
        problem_factory: _t.Callable[[Grid], object],
        grid: Grid,
        nsteps: int,
        dt: float,
        num_ranks: int = 2,
        config: FaultConfig | None = None,
        policy: ResiliencePolicy | None = None,
        archive_root: str | None = None,
        controller_kwargs: dict | None = None,
    ):
        if nsteps < 1:
            raise ValueError(f"nsteps must be >= 1, got {nsteps}")
        if num_ranks < 1:
            raise ValueError(f"need >= 1 rank, got {num_ranks}")
        grid.check_ranks(num_ranks)
        config = config or FaultConfig()
        if config.fail_rank is not None and not 0 <= config.fail_rank < num_ranks:
            raise ValueError(
                f"fail_rank {config.fail_rank} is outside [0, {num_ranks}): "
                "the failure could never fire"
            )
        if config.fail_at_step is not None and config.fail_at_step > nsteps:
            raise ValueError(
                f"fail_at_step {config.fail_at_step} is past nsteps {nsteps}: "
                "the failure could never fire"
            )
        self.problem_factory = problem_factory
        self.grid = grid
        self.nsteps = nsteps
        self.dt = dt
        self.num_ranks = num_ranks
        self.config = config
        self.policy = policy or ResiliencePolicy()
        self.archive_root = archive_root or tempfile.mkdtemp(suffix=".uda")
        self.controller_kwargs = dict(controller_kwargs or {})
        self.injector = FaultInjector(self.config)
        #: Final per-rank data warehouses of the last completed segment.
        self.final_dws: list = []
        #: Last completed segment's :class:`RunResult` (for inspection).
        self.last_result: RunResult | None = None

    # ------------------------------------------------------------------ pieces
    def _controller(self, grid: Grid, tasks, init_tasks, ranks: int):
        return SimulationController(
            grid,
            tasks,
            init_tasks,
            num_ranks=ranks,
            faults=self.injector,
            resilience=self.policy,
            **self.controller_kwargs,
        )

    def _restart_init(self, ck) -> list:
        """Rebuild an init graph restoring every checkpointed field."""
        tasks = []
        for name in sorted(ck.fields):
            tasks.extend(restart_tasks(ck, VarLabel(name)))
        if not tasks:
            raise ValueError(f"checkpoint at {self.archive_root} holds no fields")
        return tasks

    @staticmethod
    def _fold(controller: SimulationController, into: SchedulerStats) -> None:
        """Merge a (possibly aborted) controller's counters into ``into``."""
        for sched in controller.schedulers:
            into.merge(sched.stats)

    @staticmethod
    def _recovery_spans(controller: SimulationController) -> int:
        """Recovery intervals (watchdog aborts, MPE fallbacks, stragglers)
        the controller's schedulers put on the timeline, aborted segments
        included; counted where emitted, so tracing can stay off."""
        scheds = controller.init_schedulers + controller.schedulers
        return sum(sched.recovery_spans for sched in scheds)

    # ------------------------------------------------------------------ run
    def run(self) -> ResilienceReport:
        """Advance all timesteps, recovering from failures; report."""
        archive = UdaArchive(self.archive_root)
        stats = SchedulerStats()
        ranks = self.num_ranks
        grid = self.grid
        done = 0  # global timesteps completed and checkpointed/held
        faulty_time = 0.0
        checkpoints = recoveries = failures = replayed = spans = 0

        while done < self.nsteps:
            chunk = min(self.policy.checkpoint_every, self.nsteps - done)
            problem = self.problem_factory(grid)
            if done == 0:
                init = problem.init_tasks()
            else:
                ck = archive.load()
                grid = ck.grid
                problem = self.problem_factory(grid)
                init = self._restart_init(ck)
            self.injector.step_offset = done
            controller = self._controller(grid, problem.tasks(), init, ranks)
            try:
                result = controller.run(
                    nsteps=chunk, dt=self.dt, start_step=done
                )
            except RankFailure as exc:
                # the segment's work is poisoned: discard it, shrink the
                # layout by the dead rank, replay from the last checkpoint
                failures += 1
                recoveries += 1
                replayed += max(0, exc.step - 1 - done)
                faulty_time += controller.sim.now
                spans += self._recovery_spans(controller)
                self._fold(controller, stats)
                if ranks <= 1:
                    raise RuntimeError(
                        "rank failure with no survivors: cannot recover"
                    ) from exc
                ranks -= 1
                continue
            done += chunk
            faulty_time += result.total_time
            spans += self._recovery_spans(controller)
            self._fold(controller, stats)
            self.final_dws = result.final_dws
            self.last_result = result
            if done < self.nsteps:
                # no terminal checkpoint: the final state is in final_dws
                archive.save(grid, result.final_dws, step=done, time=result.sim_time)
                checkpoints += 1

        stats.rank_recoveries += recoveries
        stats.steps_replayed += replayed
        return ResilienceReport(
            seed=self.config.seed,
            nsteps=self.nsteps,
            num_ranks_start=self.num_ranks,
            num_ranks_end=ranks,
            faults_by_kind=self.injector.counts_by_kind(),
            stats=stats,
            checkpoints_written=checkpoints,
            rank_failures=failures,
            recoveries=recoveries,
            steps_replayed=replayed,
            recovery_spans=spans,
            faulty_time=faulty_time,
        )
