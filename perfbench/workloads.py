"""The benchmark's three workloads: their cells, checks and figures.

A *cell* is one unit of work the closed loop issues: one
``SimulationController`` build and ``run()``, or one
``ResilientRunner.run()``.  A *batch* is one pass over a workload's cell
list; every batch of a run holds the same cells, so the deterministic
figures of a run depend only on ``--seed``, never on how many batches fit
in the measuring time.

Why these three (each stresses a different layer):

* ``sweep-model`` -- model mode, no numerics.  Host time is the DES loop,
  scheduler orchestration and controller setup (about 30 % of a 128-CG
  cell).  It is the workload for DES and scheduler speed-ups.
* ``real-burgers`` -- real numerics.  Host time is the Burgers kernel,
  phi/boundary evaluation and ghost copies; the DES is a small share, so
  a DES-only speed-up should not move it.
* ``faulted-restart`` -- fault injection with checkpoint/restart.  The
  same layers run their retry, watchdog and fallback paths, ``io.uda``
  writes and reloads checkpoints, and setup reruns on the shrunken
  layout, so a fault-free gain that costs recovery shows here.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import json
import math
import pathlib
import random
import shutil
import traceback
import typing as _t

import numpy as np

from repro.burgers.component import BurgersProblem
from repro.burgers.exact import solution_errors
from repro.core.controller import SimulationController
from repro.core.grid import Grid
from repro.core.schedulers.base import SchedulerStats
from repro.core.task import TaskKind
from repro.faults import FaultConfig, ResiliencePolicy
from repro.faults.recovery import ResilientRunner
from repro.harness import calibration
from repro.harness.problems import USABLE_BYTES_PER_CG, problem_by_name
from repro.harness.variants import variant_by_name

from probes import clock

HERE = pathlib.Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
#: Simulated seconds of the ``16x16x512`` / ``acc.async`` / 8-CG run that
#: ``benchmarks/bench_scheduler_overhead.py`` pinned before this benchmark
#: existed; the same sweep-model cell must reproduce it exactly.
BASELINE_PATH = HERE.parent / "benchmarks" / "results" / "scheduler_overhead_baseline.json"
BASELINE_CELL = "16x16x512/acc.async/8"

NSTEPS_MODEL = 10
SWEEP_PROBLEMS = (("16x16x512", (1, 8, 32, 128)), ("128x128x512", (8, 32, 128)))
SWEEP_VARIANTS = ("host.sync", "acc.sync", "acc.async", "acc_simd.async")
#: Paper Table V strong-scaling efficiencies (min CGs -> 128 CGs), in
#: percent, for the swept variants the table covers.  Source: the paper's
#: Table V as transcribed in EXPERIMENTS.md ("Table V -- strong-scaling
#: efficiency").  ``host.sync`` has no Table V column.
TABLE5_PAPER = {
    ("16x16x512", "acc.sync"): 49.7,
    ("16x16x512", "acc.async"): 46.8,
    ("16x16x512", "acc_simd.async"): 31.7,
    ("128x128x512", "acc.sync"): 97.7,
    ("128x128x512", "acc.async"): 83.1,
    ("128x128x512", "acc_simd.async"): 89.9,
}

REAL_EXTENT, REAL_LAYOUT, REAL_RANKS, REAL_NSTEPS = (128, 128, 64), (8, 8, 2), 8, 10
REAL_MODES = ("async", "sync", "mpe_only")
#: The start times the seed picks from.  A finite set keeps a recorded
#: ``l2_error`` reference for every one of them.
T0_CHOICES = tuple(round(0.0015 * k, 4) for k in range(16))

FAULT_EXTENT, FAULT_LAYOUT, FAULT_RANKS, FAULT_NSTEPS = (64, 64, 64), (4, 4, 2), 8, 12
FAULT_CELLS_PER_BATCH = 8
#: ``repro resilience`` CLI defaults: probabilities, failing rank and step.
FAULT_DEFAULTS = dict(
    kernel_slowdown_prob=0.1,
    kernel_stuck_prob=0.05,
    dma_error_prob=0.05,
    msg_drop_prob=0.05,
    msg_dup_prob=0.03,
    msg_delay_prob=0.05,
    fail_rank=2,
    fail_at_step=8,
)
CHECKPOINT_EVERY = 5


@dataclasses.dataclass
class Outcome:
    """What one cell produced."""

    key: str
    cell_s: float = 0.0
    setup_s: float = 0.0
    run_s: float = 0.0
    #: Simulated seconds per timestep.
    sim_step_s: float = 0.0
    #: Deterministic outputs the checks and per-layer counts use.
    facts: dict = dataclasses.field(default_factory=dict)
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def fail(self, why: str) -> None:
        if self.error is None:
            self.error = why


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def calibrated() -> dict:
    """Controller keyword arguments shared by every cell: the calibrated
    cost model, fabric and scheduler constants."""
    return dict(
        cost_model=calibration.cost_model(),
        fabric_config=calibration.FABRIC,
        scheduler_kwargs=calibration.scheduler_kwargs(),
    )


def layer_facts(stats: SchedulerStats, controllers: _t.Sequence[SimulationController]) -> dict:
    """Scheduler, fabric and accelerator counters of one cell."""
    per_launch = {
        ctl.costs.kernel_dma_volume(dt.task, dt.patch).total_bytes
        for ctl in controllers
        for dt in ctl.graph.detailed_tasks
        if dt.task.kind is TaskKind.CPE_KERNEL
    }
    if len(per_launch) > 1:
        raise ValueError("benchmark grids must have uniform patches")
    return {
        "tasks_run": stats.tasks_run,
        "kernels_offloaded": stats.kernels_offloaded,
        "kernels_on_mpe": stats.kernels_on_mpe,
        "local_copies": stats.local_copies,
        "scrubbed": stats.scrubbed,
        "idle_wait": stats.idle_wait,
        "spin_wait": stats.spin_wait,
        "kernel_flops": stats.kernel_flops,
        "kernel_timeouts": stats.kernel_timeouts,
        "kernel_retries": stats.kernel_retries,
        "mpe_fallbacks": stats.mpe_fallbacks,
        "dma_bytes": stats.kernels_offloaded * sum(per_launch),
        "messages": sum(c.fabric.messages_sent for c in controllers),
        "bytes": sum(c.fabric.bytes_sent for c in controllers),
        "mpi_retries": sum(c.fabric.mpi_retries for c in controllers),
    }


def fields_of(dws) -> dict[int, np.ndarray]:
    return {v.patch.patch_id: v.interior for dw in dws for v in dw.grid_variables()}


def fields_digest(dws) -> str:
    h = hashlib.sha256()
    for pid, data in sorted(fields_of(dws).items()):
        h.update(pid.to_bytes(4, "little"))
        h.update(np.ascontiguousarray(data).tobytes())
    return h.hexdigest()


def geomean(values: _t.Iterable[float]) -> float:
    """Geometric mean; ``fsum`` makes it independent of the value order."""
    vals = list(values)
    return math.exp(math.fsum(math.log(v) for v in vals) / len(vals))


class Workload:
    """Base: a seeded cell list, one cell runner and per-batch checks."""

    name = ""

    def __init__(self, seed: int, work_dir: pathlib.Path, reference: dict):
        self.seed = seed
        self.rng = random.Random(seed)
        self.work_dir = work_dir
        #: This workload's section of ``reference.json``.
        self.reference = reference

    def prepare(self) -> None:
        """Untimed per-process preparation (reference runs)."""

    def batch(self) -> list:
        """The cell specs of the next batch."""
        raise NotImplementedError

    def warmup_spec(self):
        """The cell spec of the untimed warm-up cell."""
        raise NotImplementedError

    def execute(self, spec, setup) -> tuple[float, object]:
        """Run one cell; return host seconds inside ``run()`` (controller
        builds nested in it excluded) and the raw result for :meth:`finish`."""
        raise NotImplementedError

    def finish(self, out: Outcome, raw, controllers) -> None:
        """Extract figures and facts from ``raw`` and check them."""
        raise NotImplementedError

    def check_batch(self, outs: list[Outcome]) -> None:
        """Mark cells whose outputs are wrong (``Outcome.fail``)."""

    def quality(self, outs: list[Outcome]) -> float:
        """The workload's deterministic quality figure over one batch."""
        raise NotImplementedError

    def describe(self) -> dict:
        """What the seed chose (for the determinism self-test)."""
        return {}


class SweepModel(Workload):
    """Table III problems across CG counts and Table IV variants, model mode."""

    name = "sweep-model"

    def __init__(self, *args):
        super().__init__(*args)
        self.cells = [
            (p, v, c) for p, cgs in SWEEP_PROBLEMS for c in cgs for v in SWEEP_VARIANTS
        ]
        self.baseline = json.loads(BASELINE_PATH.read_text())["simulated_seconds"]
        self.first_order: list[str] | None = None

    def batch(self):
        order = self.rng.sample(self.cells, len(self.cells))
        if self.first_order is None:
            self.first_order = ["/".join(map(str, c)) for c in order]
        return order

    def warmup_spec(self):
        return ("16x16x512", "acc.async", 8)

    def execute(self, spec, setup):
        pname, vname, cgs = spec
        problem, variant = problem_by_name(pname), variant_by_name(vname)
        grid = problem.grid()
        burgers = BurgersProblem(grid, fast_exp=True)
        sched_kwargs = calibration.scheduler_kwargs()
        sched_kwargs["select_policy"] = variant.select_policy
        ctl = SimulationController(
            grid,
            burgers.tasks(),
            burgers.init_tasks(),
            num_ranks=cgs,
            mode=variant.mode,
            cost_model=variant.cost_model(),
            real=False,
            fabric_config=calibration.FABRIC,
            scheduler_kwargs=sched_kwargs,
            memory_limit_bytes=USABLE_BYTES_PER_CG,
        )
        t0, s0 = clock(), setup.seconds
        res = ctl.run(nsteps=NSTEPS_MODEL, dt=burgers.stable_dt())
        return clock() - t0 - (setup.seconds - s0), (res, ctl)

    def finish(self, out, raw, controllers):
        res, ctl = raw
        out.sim_step_s = res.time_per_step
        out.facts = layer_facts(res.stats, controllers)
        out.facts.update(total_time=res.total_time, sim_now=ctl.sim.now)
        ref = self.reference.get(out.key)
        if ref is None:
            out.fail("no recorded reference")
            return
        got = {k: out.facts[k] for k in ("total_time", "messages", "bytes", "kernel_flops")}
        if got != ref:
            out.fail(f"differs from the recorded reference: {got} != {ref}")
        if out.key == BASELINE_CELL and res.total_time != self.baseline:
            out.fail(f"total_time {res.total_time!r} != baseline {self.baseline!r}")

    def quality(self, outs):
        """Table V error: mean |simulated - paper| efficiency, in points."""
        t = {o.key: o.sim_step_s for o in outs}
        errs = []
        for (pname, vname), paper in sorted(TABLE5_PAPER.items()):
            cgs = dict(SWEEP_PROBLEMS)[pname]
            base, top = cgs[0], cgs[-1]
            eff = t[f"{pname}/{vname}/{base}"] * base / (t[f"{pname}/{vname}/{top}"] * top)
            errs.append(abs(100.0 * eff - paper))
        return math.fsum(errs) / len(errs)

    def describe(self):
        return {"order": self.first_order}


class RealBurgers(Workload):
    """Real Burgers numerics in the three scheduler modes."""

    name = "real-burgers"

    def __init__(self, *args):
        super().__init__(*args)
        self.t0_index = self.rng.randrange(len(T0_CHOICES))
        self.t0 = T0_CHOICES[self.t0_index]
        self.grid = Grid(extent=REAL_EXTENT, layout=REAL_LAYOUT)

    def batch(self):
        return list(REAL_MODES)

    def warmup_spec(self):
        return "async"

    def execute(self, mode, setup):
        burgers = BurgersProblem(self.grid, fast_exp=True)
        ctl = SimulationController(
            self.grid,
            burgers.tasks(),
            burgers.init_tasks(),
            num_ranks=REAL_RANKS,
            mode=mode,
            real=True,
            **calibrated(),
        )
        t0, s0 = clock(), setup.seconds
        res = ctl.run(nsteps=REAL_NSTEPS, dt=burgers.stable_dt(), t0=self.t0)
        return clock() - t0 - (setup.seconds - s0), (res, ctl, burgers)

    def finish(self, out, raw, controllers):
        res, ctl, burgers = raw
        out.sim_step_s = res.time_per_step
        out.facts = layer_facts(res.stats, controllers)
        out.facts.update(
            sim_now=ctl.sim.now,
            sha256=fields_digest(res.final_dws),
            l2_error=solution_errors(self.grid, res.final_dws, burgers.u_label, res.sim_time)[
                "l2"
            ],
        )
        bound = self.reference["l2_error"][self.t0_index]
        if not out.facts["l2_error"] <= bound * (1 + 1e-9):
            out.fail(f"l2_error {out.facts['l2_error']!r} above recorded {bound!r}")

    def check_batch(self, outs):
        if len({o.facts.get("sha256") for o in outs}) != 1:
            for o in outs:
                o.fail("fields differ between scheduler modes")

    def quality(self, outs):
        return outs[0].facts["l2_error"]

    def describe(self):
        return {"t0": self.t0}


class FaultedRestart(Workload):
    """ResilientRunner under the CLI's default fault mix with one rank loss."""

    name = "faulted-restart"

    def __init__(self, *args):
        super().__init__(*args)
        self.fault_seeds = [self.rng.randrange(2**31) for _ in range(FAULT_CELLS_PER_BATCH)]
        self.grid = Grid(extent=FAULT_EXTENT, layout=FAULT_LAYOUT)
        self.dt = BurgersProblem(self.grid, fast_exp=True).stable_dt()

    @staticmethod
    def problem(grid):
        return BurgersProblem(grid, fast_exp=True)

    def prepare(self):
        # The fault-free reference does not depend on the seed: one run per
        # process serves every cell's bit-identity check.
        burgers = self.problem(self.grid)
        ref = SimulationController(
            self.grid,
            burgers.tasks(),
            burgers.init_tasks(),
            num_ranks=FAULT_RANKS,
            real=True,
            **calibrated(),
        ).run(nsteps=FAULT_NSTEPS, dt=self.dt)
        self.ref_fields = fields_of(ref.final_dws)
        self.ref_time = ref.total_time

    def batch(self):
        return list(self.fault_seeds)

    def warmup_spec(self):
        return self.fault_seeds[0]

    def execute(self, fault_seed, setup):
        archive = self.work_dir / "uda"
        shutil.rmtree(archive, ignore_errors=True)  # left over if the last cell raised
        runner = ResilientRunner(
            self.problem,
            self.grid,
            nsteps=FAULT_NSTEPS,
            dt=self.dt,
            num_ranks=FAULT_RANKS,
            config=FaultConfig(seed=fault_seed, **FAULT_DEFAULTS),
            policy=ResiliencePolicy(checkpoint_every=CHECKPOINT_EVERY),
            archive_root=str(archive),
            controller_kwargs=calibrated(),
        )
        t0, s0 = clock(), setup.seconds
        report = runner.run()
        return clock() - t0 - (setup.seconds - s0), (runner, report, archive)

    def finish(self, out, raw, controllers):
        runner, report, archive = raw
        out.sim_step_s = report.faulty_time / FAULT_NSTEPS
        out.facts = layer_facts(report.stats, controllers)
        got = fields_of(runner.final_dws)
        out.facts.update(
            sim_now=report.faulty_time,
            faults_injected=report.faults_injected,
            dma_errors=report.faults_by_kind.get("dma_error", 0),
            recoveries=report.recoveries,
            steps_replayed=report.steps_replayed,
            recovery_overhead=report.faulty_time / self.ref_time,
            uda_bytes=sum(p.stat().st_size for p in archive.rglob("*") if p.is_file()),
        )
        shutil.rmtree(archive, ignore_errors=True)
        if report.recoveries != 1:
            out.fail(f"expected one rank recovery, saw {report.recoveries}")
        if set(got) != set(self.ref_fields) or not all(
            np.array_equal(got[p], self.ref_fields[p]) for p in got
        ):
            out.fail("recovered fields differ from the fault-free reference")

    def quality(self, outs):
        return geomean(o.facts["recovery_overhead"] for o in outs)

    def describe(self):
        return {"fault_seeds": self.fault_seeds}


CLASSES = {w.name: w for w in (SweepModel, RealBurgers, FaultedRestart)}


def make(name: str, seed: int, work_dir: pathlib.Path) -> Workload:
    return CLASSES[name](seed, work_dir, load_reference()[name])


def run_cell(workload: Workload, spec, setup, tracer=None) -> Outcome:
    """Run, time and check one cell.  A cell that raises is a failed cell."""
    key = "/".join(map(str, spec)) if isinstance(spec, tuple) else str(spec)
    out = Outcome(key)
    gc.collect()  # the previous cell's garbage is not this cell's cost
    setup.take()
    t0 = clock()
    try:
        with tracer.span("cell") if tracer is not None else contextlib.nullcontext():
            out.run_s, raw = workload.execute(spec, setup)
        out.cell_s = clock() - t0
        out.setup_s, controllers = setup.take()
        workload.finish(out, raw, controllers)
    except Exception as exc:  # a failing cell is counted and the loop goes on
        traceback.print_exc()
        out.fail(f"raised {type(exc).__name__}: {exc}")
        setup.take()
        return out
    if not out.facts.get("sim_now", 0.0) > 0.0 or not out.facts.get("tasks_run", 0) > 0:
        out.fail("no DES events processed (memoized or empty run)")
    return out
