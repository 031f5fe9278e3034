"""Differential verification harness: one problem, every configuration.

Runs the same Burgers problem across execution modes (``mpe_only`` /
``sync`` / ``async``), every ready-task selection policy, and a set of
seeded fault plans, with the online
:class:`~repro.verify.validator.ScheduleValidator` attached, and asserts
two properties the whole reproduction rests on:

1. **Bitwise-identical physics** — every configuration produces exactly
   the same final field arrays as the fault-free reference (the paper's
   modes differ in *schedule*, never in *answers*).
2. **Zero invariant violations** — the validator's catalog holds in
   every configuration.

It also proves the validator itself is **non-perturbing**: for each mode
the problem runs with and without the validator and the schedules
(timings, per-rank counters) must match exactly.

On failure the harness minimizes the case to the fewest timesteps that
still fail and emits a :class:`~repro.verify.bundle.ReproBundle`.
"""

from __future__ import annotations

import dataclasses
import pathlib
import typing as _t

import numpy as np

from repro.core.schedulers.selection import POLICIES
from repro.verify.bundle import ReproBundle
from repro.verify.validator import ScheduleValidator

#: Fault-plan template; the seed selects the deterministic stream.
_FAULT_PROBS = dict(
    kernel_slowdown_prob=0.10,
    kernel_stuck_prob=0.05,
    dma_error_prob=0.05,
    msg_drop_prob=0.15,
    msg_dup_prob=0.10,
    msg_delay_prob=0.15,
)

#: Default differential matrix coordinates.
DEFAULT_MODES = ("mpe_only", "sync", "async")
DEFAULT_SEEDS = (None, 7, 23, 101)  # None = fault-free
#: 16 patches on 2 ranks: enough off-rank faces that ``most_messages``
#: reorders async dispatch, so the policy axis checks a different schedule.
DEFAULT_LAYOUT = (4, 4, 1)


def fault_config_for(seed: int):
    """The differential harness's standard fault plan under ``seed``."""
    from repro.faults import FaultConfig

    return FaultConfig(seed=seed, **_FAULT_PROBS)


@dataclasses.dataclass
class CaseResult:
    """One cell of the differential matrix."""

    mode: str
    policy: str
    seed: int | None
    fields: dict[str, np.ndarray]
    report: dict
    result: object  # RunResult
    #: Bus events around the first violation (empty when clean).
    window: list = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.report["ok"]


def _build_controller(
    mode: str,
    policy: str,
    seed: int | None,
    extent: tuple[int, int, int],
    layout: tuple[int, int, int],
    num_ranks: int,
    validator: ScheduleValidator | None,
    case_hook: _t.Callable | None = None,
):
    from repro.burgers import BurgersProblem
    from repro.core.controller import SimulationController
    from repro.core.grid import Grid
    from repro.faults import FaultInjector, ResiliencePolicy

    grid = Grid(extent=extent, layout=layout)
    prob = BurgersProblem(grid)
    faults = resilience = None
    if seed is not None:
        faults = FaultInjector(fault_config_for(seed))
        resilience = ResiliencePolicy()
    ctl = SimulationController(
        grid,
        prob.tasks(),
        prob.init_tasks(),
        num_ranks=num_ranks,
        mode=mode,
        real=True,
        scheduler_kwargs={"select_policy": policy},
        faults=faults,
        resilience=resilience,
        validator=validator,
    )
    if case_hook is not None:
        case_hook(ctl)
    return ctl, prob


def fields_of(result) -> dict[str, np.ndarray]:
    """Final field arrays keyed ``label@patch`` (the physics fingerprint)."""
    out: dict[str, np.ndarray] = {}
    for dw in result.final_dws:
        for var in dw.grid_variables():
            out[f"{var.label.name}@p{var.patch.patch_id}"] = var.interior.copy()
    return out


def fields_identical(a: dict[str, np.ndarray], b: dict[str, np.ndarray]) -> bool:
    """Bitwise equality of two physics fingerprints."""
    if set(a) != set(b):
        return False
    return all(np.array_equal(a[k], b[k]) for k in a)


def run_case(
    mode: str,
    policy: str,
    seed: int | None,
    nsteps: int,
    extent: tuple[int, int, int],
    layout: tuple[int, int, int],
    num_ranks: int,
    case_hook: _t.Callable | None = None,
) -> CaseResult:
    """Run one matrix cell with the validator attached."""
    validator = ScheduleValidator()
    ctl, prob = _build_controller(
        mode, policy, seed, extent, layout, num_ranks, validator, case_hook
    )
    res = ctl.run(nsteps=nsteps, dt=prob.stable_dt())
    return CaseResult(
        mode=mode,
        policy=policy,
        seed=seed,
        fields=fields_of(res),
        report=validator.report(),
        result=res,
        window=list(validator.first_window or ()),
    )


# ---------------------------------------------------------------- gates
def _stats_dicts(result) -> list[dict]:
    return [dataclasses.asdict(s) for s in result.rank_stats]


def check_nonperturbation(
    mode: str,
    nsteps: int,
    extent: tuple[int, int, int],
    layout: tuple[int, int, int],
    num_ranks: int,
) -> dict:
    """Golden gate: a validated run is bit-identical to an unvalidated one."""
    runs = []
    for validator in (None, ScheduleValidator()):
        ctl, prob = _build_controller(
            mode, "fifo", None, extent, layout, num_ranks, validator
        )
        runs.append(ctl.run(nsteps=nsteps, dt=prob.stable_dt()))
    bare, checked = runs
    identical = (
        bare.time_per_step == checked.time_per_step
        and bare.step_times == checked.step_times
        and _stats_dicts(bare) == _stats_dicts(checked)
        and fields_identical(fields_of(bare), fields_of(checked))
    )
    return {"mode": mode, "identical": identical}


def minimize_case(
    mode: str,
    policy: str,
    seed: int | None,
    nsteps: int,
    extent: tuple[int, int, int],
    layout: tuple[int, int, int],
    num_ranks: int,
    reference_for: _t.Callable[[int], dict[str, np.ndarray]],
    case_hook: _t.Callable | None = None,
) -> tuple[int, CaseResult]:
    """Smallest step count at which the case still fails (and that run)."""
    for n in range(1, nsteps + 1):
        case = run_case(
            mode, policy, seed, n, extent, layout, num_ranks, case_hook
        )
        if not case.ok or not fields_identical(case.fields, reference_for(n)):
            return n, case
    # failure did not reproduce during minimization: keep the full case
    return nsteps, run_case(
        mode, policy, seed, nsteps, extent, layout, num_ranks, case_hook
    )


# ---------------------------------------------------------------- harness
def run_differential(
    modes: _t.Sequence[str] = DEFAULT_MODES,
    policies: _t.Sequence[str] = tuple(POLICIES),
    seeds: _t.Sequence[int | None] = DEFAULT_SEEDS,
    nsteps: int = 3,
    extent: tuple[int, int, int] = (8, 8, 8),
    layout: tuple[int, int, int] = DEFAULT_LAYOUT,
    num_ranks: int = 2,
    out: str | pathlib.Path | None = None,
    case_hook: _t.Callable | None = None,
    check_perturbation: bool = True,
    log: _t.Callable[[str], None] | None = None,
) -> dict:
    """Run the full differential matrix; return the verification report.

    ``case_hook(controller)`` is applied to every matrix controller (the
    self-tests use it to sabotage runs); the reference run stays clean.
    """
    from repro.core.grid import Grid

    Grid(extent=extent, layout=layout).check_ranks(num_ranks)
    say = log if log is not None else (lambda msg: None)
    problem = {
        "extent": list(extent),
        "layout": list(layout),
        "num_ranks": num_ranks,
        "nsteps": nsteps,
    }

    # fault-free reference (first mode, fifo), cached per step count for
    # the minimizer
    _ref_cache: dict[int, dict[str, np.ndarray]] = {}

    def reference_for(n: int) -> dict[str, np.ndarray]:
        if n not in _ref_cache:
            _ref_cache[n] = run_case(
                modes[0], "fifo", None, n, extent, layout, num_ranks
            ).fields
        return _ref_cache[n]

    reference = reference_for(nsteps)
    say(f"reference: mode={modes[0]} policy=fifo fault-free ({len(reference)} fields)")

    cases = []
    bundles: list[ReproBundle] = []
    for mode in modes:
        for policy in policies:
            for seed in seeds:
                case = run_case(
                    mode, policy, seed, nsteps, extent, layout, num_ranks, case_hook
                )
                identical = fields_identical(case.fields, reference)
                entry = {
                    "mode": mode,
                    "policy": policy,
                    "seed": seed,
                    "violations": case.report["num_violations"],
                    "identical_physics": identical,
                    "ok": case.ok and identical,
                }
                cases.append(entry)
                if not entry["ok"]:
                    say(
                        f"FAIL mode={mode} policy={policy} seed={seed}: "
                        f"{case.report['num_violations']} violation(s), "
                        f"identical={identical} -- minimizing"
                    )
                    min_n, min_case = minimize_case(
                        mode, policy, seed, nsteps, extent, layout,
                        num_ranks, reference_for, case_hook,
                    )
                    first = (min_case.report["violations"] or [None])[0]
                    failure = (
                        first["invariant"] if first is not None else "physics-divergence"
                    )
                    bundles.append(
                        ReproBundle(
                            failure=failure,
                            mode=mode,
                            select_policy=policy,
                            fault_seed=seed,
                            problem={**problem, "nsteps": min_n},
                            violation=first,
                            window=min_case.window,
                            detail=(
                                f"{min_case.report['num_violations']} violation(s); "
                                f"physics identical: "
                                f"{fields_identical(min_case.fields, reference_for(min_n))}"
                            ),
                        )
                    )

    perturbation = []
    if check_perturbation:
        for mode in modes:
            gate = check_nonperturbation(mode, nsteps, extent, layout, num_ranks)
            perturbation.append(gate)
            if not gate["identical"]:
                bundles.append(
                    ReproBundle(
                        failure="schedule-perturbation",
                        mode=mode,
                        select_policy="fifo",
                        fault_seed=None,
                        problem=problem,
                        violation=None,
                        window=[],
                        detail="validated run differs from unvalidated run",
                    )
                )

    passed = all(c["ok"] for c in cases) and all(p["identical"] for p in perturbation)
    report = {
        "problem": problem,
        "modes": list(modes),
        "policies": list(policies),
        "seeds": [s for s in seeds],
        "cases": cases,
        "nonperturbation": perturbation,
        "num_cases": len(cases),
        "passed": passed,
        "bundles": [b.to_dict() for b in bundles],
    }
    if out is not None:
        import json

        outdir = pathlib.Path(out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "report.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        for i, b in enumerate(bundles):
            b.write(outdir / f"bundle-{i:02d}-{b.failure}.json")
    return report
