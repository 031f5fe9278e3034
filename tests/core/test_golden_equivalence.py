"""Golden-equivalence oracle for the scheduler refactor.

The layered execution engine (lifecycle / comm / offload / selection)
must be *behavior-preserving*: for every scheduler mode, for
the unified host scheduler, and for a faulted seed, the physics output,
the simulated wall time, and every :class:`SchedulerStats` counter must
be identical to what the pre-refactor monolith produced.

The reference values in ``golden/scheduler_golden.json`` were captured
from the monolithic scheduler (one commit before the engine split) with::

    PYTHONPATH=src python tests/core/test_golden_equivalence.py --regen [NAME ...]

Naming scenarios rewrites only those entries and leaves the others
byte-identical; a bare ``--regen`` rewrites them all.

Do NOT regenerate them as part of a scheduler change unless the change
is *intended* to alter scheduling behavior — the whole point of this
file is to catch silent drift.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import pathlib

import pytest

from repro.burgers import BurgersProblem
from repro.core.controller import SimulationController
from repro.core.costs import SunwayCostModel
from repro.core.grid import Grid
from repro.faults import FaultConfig, FaultInjector, ResiliencePolicy

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "scheduler_golden.json"

#: Stats accumulated from float sums of simulated time; stored as hex to
#: round-trip bit-exactly through JSON.
FLOAT_STATS = ("idle_wait", "spin_wait")


def _fault_free(mode, cpe_groups=1):
    grid = Grid(extent=(16, 16, 16), layout=(2, 2, 2))
    prob = BurgersProblem(grid)
    ctl = SimulationController(
        grid,
        prob.tasks(),
        prob.init_tasks(),
        num_ranks=2,
        mode=mode,
        cost_model=SunwayCostModel(cpe_groups=cpe_groups),
        real=True,
    )
    return ctl.run(nsteps=3, dt=prob.stable_dt())


def _unified(num_threads, faulted=False):
    from repro.core.schedulers.unified import UnifiedHostScheduler

    if faulted:
        grid = Grid(extent=(12, 12, 12), layout=(2, 1, 1))
        kwargs = _fault_kwargs()
    else:
        grid = Grid(extent=(16, 16, 16), layout=(2, 2, 2))
        kwargs = {}
    prob = BurgersProblem(grid)
    ctl = SimulationController(
        grid,
        prob.tasks(),
        prob.init_tasks(),
        num_ranks=2,
        real=True,
        scheduler_factory=functools.partial(
            UnifiedHostScheduler, num_threads=num_threads
        ),
        **kwargs,
    )
    return ctl.run(nsteps=3 if not faulted else 4, dt=prob.stable_dt())


def _fault_kwargs():
    return {
        "faults": FaultInjector(
            FaultConfig(
                seed=3,
                kernel_slowdown_prob=0.2,
                kernel_stuck_prob=0.1,
                dma_error_prob=0.2,
                msg_drop_prob=0.1,
            )
        ),
        "resilience": ResiliencePolicy(max_offload_retries=2),
    }


def _faulted(mode):
    grid = Grid(extent=(12, 12, 12), layout=(2, 1, 1))
    prob = BurgersProblem(grid)
    ctl = SimulationController(
        grid,
        prob.tasks(),
        prob.init_tasks(),
        num_ranks=2,
        mode=mode,
        real=True,
        **_fault_kwargs(),
    )
    return ctl.run(nsteps=4, dt=prob.stable_dt())


SCENARIOS = {
    "async": lambda: _fault_free("async"),
    # several offload slots: kernels overlap one another as well as MPE work
    "async_groups2": lambda: _fault_free("async", cpe_groups=2),
    "sync": lambda: _fault_free("sync"),
    "mpe_only": lambda: _fault_free("mpe_only"),
    "unified_t4": lambda: _unified(4),
    "faulted_async": lambda: _faulted("async"),
    "faulted_sync": lambda: _faulted("sync"),
    "faulted_unified_t2": lambda: _unified(2, faulted=True),
}


def fingerprint(result) -> dict:
    """Physics hash + exact times + every stats counter of one run."""
    sha = hashlib.sha256()
    fields = sorted(
        (v.patch.patch_id, v.label.name, v)
        for dw in result.final_dws
        for v in dw.grid_variables()
    )
    for pid, name, var in fields:
        sha.update(f"{pid}:{name}:".encode())
        sha.update(var.interior.tobytes())
    stats = dataclasses.asdict(result.stats)
    for name in FLOAT_STATS:
        stats[name] = float(stats[name]).hex()
    return {
        "physics_sha256": sha.hexdigest(),
        "total_time_hex": float(result.total_time).hex(),
        "sim_time_hex": float(result.sim_time).hex(),
        "stats": stats,
    }


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_equivalence(name):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert name in golden, f"no golden entry for {name}; regen with --regen"
    got = fingerprint(SCENARIOS[name]())
    want = golden[name]
    assert got["physics_sha256"] == want["physics_sha256"], name
    assert got["total_time_hex"] == want["total_time_hex"], name
    assert got["sim_time_hex"] == want["sim_time_hex"], name
    for field, value in want["stats"].items():
        assert got["stats"][field] == value, (name, field)


def _regen(names) -> None:
    """Re-record ``names`` (every scenario when empty), keep the rest."""
    unknown = sorted(set(names) - set(SCENARIOS))
    if unknown:
        raise SystemExit(f"unknown scenario(s) {unknown}; choose from {sorted(SCENARIOS)}")
    out = json.loads(GOLDEN_PATH.read_text()) if names and GOLDEN_PATH.exists() else {}
    for name in names or sorted(SCENARIOS):
        out[name] = fingerprint(SCENARIOS[name]())
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(names or SCENARIOS)} of {len(out)} scenarios)")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen(sys.argv[sys.argv.index("--regen") + 1 :])
    else:
        print(__doc__)
