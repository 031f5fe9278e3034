"""Run one (problem, variant, CG-count) experiment.

Experiments run the Burgers model problem for 10 timesteps (paper
Sec. VII-A) in performance-model mode (the grids go up to 1024^3 cells;
small-grid real-numerics runs validating that the modelled schedule and
the real one coincide live in the test suite).  Results are memoized for
the lifetime of the process since every table/figure draws from the same
underlying sweep — the paper likewise derives Tables V-VII and Figs. 5-10
from one set of runs.

The paper repeats each case and takes the best result to mitigate machine
instability; the DES is deterministic, so best-of-N is one run.
"""

from __future__ import annotations

import dataclasses

from repro.burgers.component import BurgersProblem
from repro.core.controller import SimulationController, RunResult
from repro.harness import calibration
from repro.harness.problems import ProblemSetting, USABLE_BYTES_PER_CG
from repro.harness.variants import Variant
from repro.sunway.config import CoreGroupConfig

#: Timesteps per experiment (paper Sec. VII-A: "run for 10 timesteps").
DEFAULT_NSTEPS = 10


@dataclasses.dataclass(frozen=True)
class ExperimentResult:
    """The measurements one experimental case produces."""

    problem: str
    variant: str
    num_cgs: int
    nsteps: int
    #: Simulated wall seconds per timestep — the paper's indicator.
    time_per_step: float
    #: Counted kernel flops per step (all ranks).
    flops_per_step: float
    messages_per_step: float
    bytes_per_step: float
    # -- resilience counters (structurally zero in fault-free runs) -------
    kernel_timeouts: int = 0
    kernel_retries: int = 0
    mpe_fallbacks: int = 0
    mpi_retries: int = 0
    stragglers_detected: int = 0
    rank_recoveries: int = 0

    @property
    def gflops(self) -> float:
        """Achieved Gflop/s (Sec. VII-E)."""
        return self.flops_per_step / self.time_per_step / 1e9

    @property
    def fp_efficiency(self) -> float:
        """Fraction of the running CGs' theoretical peak."""
        peak = self.num_cgs * CoreGroupConfig().peak_flops
        return self.gflops * 1e9 / peak


@dataclasses.dataclass
class InstrumentedRun:
    """Everything one observed run produced (never memoized)."""

    experiment: ExperimentResult
    #: The raw :class:`~repro.core.controller.RunResult` with its trace.
    result: RunResult
    #: The :class:`~repro.telemetry.metrics.MetricsRegistry` of its samples.
    telemetry: object
    #: The folded :class:`~repro.telemetry.ledger.RunLedger`.
    ledger: object


_CACHE: dict[tuple, ExperimentResult] = {}


def clear_cache() -> None:
    """Drop memoized experiment results (tests use this)."""
    _CACHE.clear()


def _run_case(problem, variant, num_cgs, nsteps, with_reduction, **controller_kwargs):
    """Build the case's controller and run it; returns ``(result, dt)``."""
    if num_cgs < problem.min_cgs:
        raise ValueError(
            f"problem {problem.name} needs at least {problem.min_cgs} CGs "
            f"(memory), got {num_cgs}"
        )
    sched_kwargs = calibration.scheduler_kwargs()
    sched_kwargs["select_policy"] = variant.select_policy
    grid = problem.grid()
    burgers = BurgersProblem(grid, fast_exp=True, with_reduction=with_reduction)
    controller = SimulationController(
        grid,
        burgers.tasks(),
        burgers.init_tasks(),
        num_ranks=num_cgs,
        mode=variant.mode,
        cost_model=variant.cost_model(),
        real=False,
        fabric_config=calibration.FABRIC,
        scheduler_kwargs=sched_kwargs,
        memory_limit_bytes=USABLE_BYTES_PER_CG,
        **controller_kwargs,
    )
    dt = burgers.stable_dt()
    return controller.run(nsteps=nsteps, dt=dt), dt


def _experiment(problem, variant, num_cgs, nsteps, res: RunResult) -> ExperimentResult:
    return ExperimentResult(
        problem=problem.name,
        variant=variant.name,
        num_cgs=num_cgs,
        nsteps=nsteps,
        time_per_step=res.time_per_step,
        flops_per_step=res.flops_per_step,
        messages_per_step=res.messages_sent / nsteps,
        bytes_per_step=res.bytes_sent / nsteps,
        kernel_timeouts=res.stats.kernel_timeouts,
        kernel_retries=res.stats.kernel_retries,
        mpe_fallbacks=res.stats.mpe_fallbacks,
        mpi_retries=res.stats.mpi_retries,
        stragglers_detected=res.stats.stragglers_detected,
        rank_recoveries=res.stats.rank_recoveries,
    )


def run_experiment(
    problem: ProblemSetting,
    variant: Variant,
    num_cgs: int,
    nsteps: int = DEFAULT_NSTEPS,
    with_reduction: bool = True,
) -> ExperimentResult:
    """Run (or recall) one experimental case; returns its measurements."""
    key = (problem.name, variant.name, variant.select_policy, num_cgs, nsteps, with_reduction)
    hit = _CACHE.get(key)
    if hit is not None:
        return hit
    res, _ = _run_case(problem, variant, num_cgs, nsteps, with_reduction)
    out = _CACHE[key] = _experiment(problem, variant, num_cgs, nsteps, res)
    return out


def run_instrumented(
    problem: ProblemSetting,
    variant: Variant,
    num_cgs: int,
    nsteps: int = DEFAULT_NSTEPS,
    with_reduction: bool = True,
    created_at: str | None = None,
) -> InstrumentedRun:
    """Run one case with tracing and telemetry on; returns the full bundle.

    The schedule is identical to :func:`run_experiment`'s (the registry
    only samples the DES, it never charges simulated time), but results are
    *not* memoized: the bundle carries the trace, the metrics registry
    and the ledger, which the cache must not alias across callers.
    """
    import datetime

    from repro.telemetry import MetricsRegistry, build_ledger
    from repro.telemetry.ledger import git_revision

    telemetry = MetricsRegistry()
    result, dt = _run_case(
        problem, variant, num_cgs, nsteps, with_reduction, trace_enabled=True, telemetry=telemetry
    )
    manifest = {
        "problem": problem.name,
        "variant": variant.name,
        "select_policy": variant.select_policy,
        "num_cgs": num_cgs,
        "nsteps": nsteps,
        "dt": dt,
        "t0": 0.0,
        "git_rev": git_revision(),
        "created_at": (
            created_at
            if created_at is not None
            else datetime.datetime.now(datetime.timezone.utc).isoformat()
        ),
    }
    ledger = build_ledger(result, telemetry, manifest)
    return InstrumentedRun(
        experiment=_experiment(problem, variant, num_cgs, nsteps, result),
        result=result,
        telemetry=telemetry,
        ledger=ledger,
    )
