"""Shared Hypothesis strategies and workload builders for the test suite.

One home for the generators the property tests draw from, so the suites
(``tests/core``, ``tests/simmpi``, ``tests/faults``, ``tests/verify``)
compose the same vocabulary instead of each re-rolling its own:

* :func:`grids` / :func:`patch_layouts` — meshes with valid patch
  decompositions;
* :func:`pipelines` — random multi-stage stencil workloads (stage
  count, ghost pattern, optional reduction), built by
  :func:`build_pipeline`;
* :func:`fault_plans` — seeded :class:`~repro.faults.FaultConfig`
  instances (message-level by default, kernel faults opt-in);
* :func:`comm_ops` — random send/recv programs for the MPI fabric.

The module also hosts the concrete builders (:func:`build_pipeline`,
:func:`run_workload`) so scenario tests can construct the same workloads
deterministically without Hypothesis.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.core.controller import SimulationController
from repro.core.grid import Grid
from repro.core.task import Task, TaskContext, TaskKind
from repro.core.varlabel import VarLabel
from repro.faults import FaultConfig
from repro.sunway.corerates import KernelCost

#: Flat stencil cost used by every generated pipeline stage.
PIPELINE_COST = KernelCost(stencil_flops=20, exp_calls=0)

SCHEDULER_MODES = ("async", "sync", "mpe_only")


# ---------------------------------------------------------------- grids
def patch_layouts(max_per_axis: int = 2):
    """Patch decompositions: one or two patches per axis by default."""
    axis = st.integers(1, max_per_axis)
    return st.tuples(axis, axis, axis)


@st.composite
def grids(draw, min_cells: int = 4, max_cells: int = 16, max_per_axis: int = 2):
    """A :class:`Grid` whose extent divides evenly into its layout."""
    layout = draw(patch_layouts(max_per_axis))
    extent = tuple(
        draw(
            st.integers(min_cells, max_cells).map(lambda n, k=k: n - n % k or k)
        )
        for k in layout
    )
    return Grid(extent=extent, layout=layout)


# ---------------------------------------------------------------- pipelines
def build_pipeline(num_stages: int, ghost_pattern: list[int], with_reduction: bool):
    """A circular chain u0 -> u1 -> ... -> u0 of stencil-ish stages.

    The last stage writes u0 again so the next timestep's old-DW
    requirement is satisfied — the same closure property every real
    Uintah timestep graph has.  Returns ``(tasks, init_tasks, labels)``.
    """
    labels = [VarLabel(f"u{i}") for i in range(num_stages)]
    labels.append(labels[0])  # circular: stage n-1 recomputes u0

    def make_action(src: VarLabel, dst: VarLabel, ghosts: int, stage: int):
        def action(ctx: TaskContext) -> None:
            prev_dw = ctx.old_dw if stage == 0 else ctx.new_dw
            old = prev_dw.get(src, ctx.patch)
            new = ctx.new_dw.allocate_and_put(dst, ctx.patch, ghosts=1)
            u = old.data
            if ghosts:
                # average with the -x neighbour: exercises halo data
                new.interior[...] = 0.5 * (u[1:-1, 1:-1, 1:-1] + u[:-2, 1:-1, 1:-1])
            else:
                new.interior[...] = u[1:-1, 1:-1, 1:-1] * 1.03125 + float(stage)
        return action

    def make_bc(src: VarLabel, stage: int):
        def bc(ctx: TaskContext) -> None:
            dw = ctx.old_dw if stage == 0 else ctx.new_dw
            var = dw.get(src, ctx.patch)
            for axis, side in ctx.grid.boundary_faces(ctx.patch):
                var.region_view(ctx.patch.ghost_region(axis, side))[...] = 0.25
        return bc

    tasks = []
    for stage in range(num_stages):
        src, dst = labels[stage], labels[stage + 1]
        ghosts = ghost_pattern[stage % len(ghost_pattern)]
        task = Task(
            f"stage{stage}",
            kind=TaskKind.CPE_KERNEL,
            action=make_action(src, dst, ghosts, stage),
            mpe_action=make_bc(src, stage) if ghosts else None,
            kernel_cost=PIPELINE_COST,
        )
        task.requires_(src, dw="old" if stage == 0 else "new", ghosts=ghosts)
        task.computes_(dst)
        tasks.append(task)

    if with_reduction:
        norm = VarLabel("norm", vartype="reduction")
        red = Task(
            "norm",
            kind=TaskKind.REDUCTION,
            action=lambda ctx: float(ctx.new_dw.get(labels[-1], ctx.patch).interior.sum()),
            reduction_op=lambda a, b: a + b,
        )
        red.requires_(labels[-1], dw="new").computes_(norm)
        tasks.append(red)

    def init_action(ctx: TaskContext) -> None:
        var = ctx.new_dw.allocate_and_put(labels[0], ctx.patch, ghosts=1)
        lo = ctx.patch.low
        var.interior[...] = (
            np.arange(var.interior.size, dtype=np.float64).reshape(var.interior.shape)
            * 1e-3
            + lo[0] + 2 * lo[1] + 3 * lo[2]
        )

    init = Task("init", kind=TaskKind.MPE, action=init_action)
    init.computes_(labels[0])
    return tasks, [init], labels


def run_workload(
    tasks,
    init,
    num_ranks,
    mode,
    nsteps,
    extent=(8, 8, 8),
    layout=(2, 2, 2),
    **controller_kwargs,
):
    """Run a generated pipeline; return ``(fields, RunResult)``."""
    grid = Grid(extent=extent, layout=layout)
    ctl = SimulationController(
        grid, tasks, init, num_ranks=num_ranks, mode=mode,
        real=True, **controller_kwargs,
    )
    res = ctl.run(nsteps=nsteps, dt=1e-3)
    out = {}
    for dw in res.final_dws:
        for var in dw.grid_variables():
            out[(var.label.name, var.patch.patch_id)] = var.interior.copy()
    return out, res


@st.composite
def pipelines(draw, max_stages: int = 3):
    """Parameters for :func:`build_pipeline` as a dict."""
    return {
        "num_stages": draw(st.integers(1, max_stages)),
        "ghost_pattern": draw(st.lists(st.integers(0, 1), min_size=1, max_size=3)),
        "with_reduction": draw(st.booleans()),
    }


# ---------------------------------------------------------------- faults
@st.composite
def fault_plans(
    draw,
    max_drop: float = 0.4,
    max_dup: float = 0.3,
    max_delay: float = 0.3,
    kernel_faults: bool = False,
):
    """A seeded :class:`FaultConfig` (message faults; kernels opt-in)."""
    kwargs = dict(
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
        msg_drop_prob=draw(st.floats(min_value=0.0, max_value=max_drop)),
        msg_dup_prob=draw(st.floats(min_value=0.0, max_value=max_dup)),
        msg_delay_prob=draw(st.floats(min_value=0.0, max_value=max_delay)),
    )
    if kernel_faults:
        kwargs.update(
            kernel_slowdown_prob=draw(st.floats(0.0, 0.2)),
            kernel_stuck_prob=draw(st.floats(0.0, 0.1)),
            dma_error_prob=draw(st.floats(0.0, 0.1)),
        )
    return FaultConfig(**kwargs)


# ---------------------------------------------------------------- comm ops
def comm_ops(num_ranks: int = 3, max_tag: int = 2, max_ops: int = 40):
    """Random send/recv programs for the simulated MPI fabric.

    Each op is ``(kind, src, dst, tag, nbytes)`` with kind in
    {"send", "recv"}; nbytes applies to sends only.
    """
    r = st.integers(0, num_ranks - 1)
    return st.lists(
        st.tuples(
            st.sampled_from(["send", "recv"]),
            r,
            r,
            st.integers(0, max_tag),
            st.integers(0, 100_000),
        ),
        max_size=max_ops,
    )
