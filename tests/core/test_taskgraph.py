"""Tests for the task-graph compiler: detailed tasks, deps, messages."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.grid import Grid
from repro.core.loadbalancer import LoadBalancer
from repro.core.task import Task, TaskKind
from repro.core.taskgraph import TaskGraph
from repro.core.varlabel import VarLabel
from repro.sunway.corerates import KernelCost

U = VarLabel("u")
V = VarLabel("v")
NORM = VarLabel("norm", vartype="reduction")
COST = KernelCost(stencil_flops=10, exp_calls=0)


def advance_task(name="advance", requires_new=None):
    t = Task(name, kind=TaskKind.CPE_KERNEL, kernel_cost=COST)
    t.requires_(U, dw="old", ghosts=1)
    t.computes_(U)
    if requires_new:
        t.requires_(requires_new, dw="new", ghosts=0)
    return t


def build(grid=None, tasks=None, num_ranks=2):
    grid = grid or Grid(extent=(8, 8, 8), layout=(2, 2, 2))
    tasks = tasks if tasks is not None else [advance_task()]
    assignment = LoadBalancer().assign(grid, num_ranks)
    return TaskGraph(grid, tasks, assignment, num_ranks), grid, assignment


def test_one_detailed_task_per_patch():
    graph, grid, _ = build()
    assert len(graph.detailed_tasks) == grid.num_patches
    assert {dt.patch.patch_id for dt in graph.detailed_tasks} == set(range(8))


def test_reduction_task_per_rank():
    red = Task("norm", kind=TaskKind.REDUCTION, reduction_op=max)
    red.requires_(U, dw="new").computes_(NORM)
    graph, grid, _ = build(tasks=[advance_task(), red], num_ranks=4)
    red_dts = [dt for dt in graph.detailed_tasks if dt.task.name == "norm"]
    assert len(red_dts) == 4
    assert all(dt.patch is None for dt in red_dts)
    # each reduction depends on every local advance
    for dt in red_dts:
        local_advances = [
            d
            for d in graph.detailed_tasks
            if d.task.name == "advance" and d.rank == dt.rank
        ]
        assert graph.internal_deps[dt.dt_id] == {d.dt_id for d in local_advances}


def test_old_dw_ghosts_make_cross_step_messages():
    graph, grid, assignment = build(num_ranks=2)
    assert graph.messages, "2 ranks must exchange ghosts"
    for msg in graph.messages:
        assert msg.dw == "old"
        assert msg.cross_step
        assert msg.producer is not None
        assert msg.producer.patch.patch_id == msg.from_patch.patch_id
        assert assignment[msg.from_patch.patch_id] == msg.from_rank
        assert assignment[msg.to_patch.patch_id] == msg.to_rank
        assert msg.from_rank != msg.to_rank


def test_intra_rank_ghosts_become_copies():
    graph, grid, _ = build(num_ranks=1)
    assert not graph.messages
    # 8 patches x 3 interior faces each = 24 face pairs = 24 copies
    assert len(graph.copies) == 24
    for cp in graph.copies:
        assert cp.producer is None  # old-DW copies run at step start
        assert cp.region.num_cells == 16  # 4x4 face of a 4^3 patch


def test_message_tags_unique_and_dense():
    graph, _, _ = build(num_ranks=4)
    tags = [m.tag for m in graph.messages]
    assert len(set(tags)) == len(tags)
    assert sorted(tags) == list(range(len(tags)))
    assert graph.num_tags >= len(tags)


def test_message_nbytes():
    graph, _, _ = build(num_ranks=2)
    msg = graph.messages[0]
    assert msg.nbytes == msg.region.num_cells * 8


def test_new_dw_dependency_internal_edge():
    t1 = advance_task()
    t2 = Task("post", kind=TaskKind.MPE)
    t2.requires_(U, dw="new", ghosts=0)
    t2.computes_(V)
    graph, grid, _ = build(tasks=[t1, t2], num_ranks=1)
    for dt in graph.detailed_tasks:
        if dt.task.name == "post":
            deps = graph.internal_deps[dt.dt_id]
            assert len(deps) == 1
            (dep_id,) = deps
            producer = graph.detailed_tasks[dep_id]
            assert producer.task.name == "advance"
            assert producer.patch.patch_id == dt.patch.patch_id


def test_new_dw_requires_earlier_producer():
    t1 = Task("consume", kind=TaskKind.MPE)
    t1.requires_(V, dw="new")
    t2 = Task("produce", kind=TaskKind.MPE)
    t2.computes_(V)
    with pytest.raises(ValueError, match="declared later|no task computes"):
        build(tasks=[t1, t2], num_ranks=1)


def test_duplicate_task_names_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        build(tasks=[advance_task(), advance_task()], num_ranks=1)


def test_two_tasks_computing_same_label_rejected():
    t1 = advance_task("a")
    t2 = advance_task("b")
    with pytest.raises(ValueError, match="computed by both"):
        build(tasks=[t1, t2], num_ranks=1)


def test_reduction_with_ghosts_rejected():
    red = Task("norm", kind=TaskKind.REDUCTION, reduction_op=max)
    red.requires_(U, dw="new", ghosts=1).computes_(NORM)
    with pytest.raises(ValueError, match="cannot require ghost"):
        build(tasks=[advance_task(), red])


def test_bootstrap_sends_match_cross_step_messages():
    graph, _, _ = build(num_ranks=4)
    boot = [m for r in range(4) for m in graph.bootstrap_sends(r)]
    cross = [m for m in graph.messages if m.cross_step]
    assert sorted(id(m) for m in boot) == sorted(id(m) for m in cross)


def test_per_rank_views_are_consistent():
    graph, _, _ = build(num_ranks=4)
    all_local = [dt for r in range(4) for dt in graph.local_tasks(r)]
    assert sorted(dt.dt_id for dt in all_local) == [
        dt.dt_id for dt in graph.detailed_tasks
    ]
    # every message appears in exactly one consumer's recvs
    recv_ids = [id(m) for dt in graph.detailed_tasks for m in graph.recvs_for(dt)]
    assert sorted(recv_ids) == sorted(id(m) for m in graph.messages)


def test_validate_acyclic_passes_and_detects_cycles():
    graph, _, _ = build(num_ranks=2)
    graph.validate_acyclic()
    a, b = graph.detailed_tasks[0], graph.detailed_tasks[1]
    graph.internal_deps[a.dt_id].add(b.dt_id)
    graph.internal_deps[b.dt_id].add(a.dt_id)
    with pytest.raises(ValueError, match="cycle"):
        graph.validate_acyclic()


def test_assignment_validation():
    grid = Grid(extent=(8, 8, 8), layout=(2, 2, 2))
    with pytest.raises(ValueError, match="misses"):
        TaskGraph(grid, [advance_task()], {0: 0}, 1)
    full = {p.patch_id: 0 for p in grid.patches()}
    bad = dict(full)
    bad[0] = 5
    with pytest.raises(ValueError, match="outside range"):
        TaskGraph(grid, [advance_task()], bad, 2)


@st.composite
def assignments(draw):
    """``(num_ranks, assignment)``: any patch -> rank map of the 2x2x2
    layout, the load balancer's or an arbitrary one (ranks may own none)."""
    num_ranks = draw(st.integers(1, 8))
    grid = Grid(extent=(8, 8, 8), layout=(2, 2, 2))
    if draw(st.booleans()):
        return num_ranks, LoadBalancer().assign(grid, num_ranks)
    ranks = draw(st.lists(st.integers(0, num_ranks - 1), min_size=8, max_size=8))
    return num_ranks, dict(enumerate(ranks))


@settings(deadline=None, max_examples=25)
@given(case=assignments())
def test_property_no_ghost_dependency_lost(case):
    """For any assignment, every (patch, face-neighbour) pair is served by
    exactly one message or copy — ghost data can never be missing."""
    num_ranks, assignment = case
    grid = Grid(extent=(8, 8, 8), layout=(2, 2, 2))
    graph = TaskGraph(grid, [advance_task()], assignment, num_ranks)
    served = set()
    for msg in graph.messages:
        served.add((msg.to_patch.patch_id, msg.from_patch.patch_id))
    for cp in graph.copies:
        served.add((cp.to_patch.patch_id, cp.from_patch.patch_id))
    expected = set()
    for p in grid.patches():
        for _axis, _side, nb in grid.face_neighbors(p):
            expected.add((p.patch_id, nb.patch_id))
    assert served == expected
    assert len(graph.messages) + len(graph.copies) == len(expected)


# -- per-rank plans, built once per compiled graph ------------------------------------

@settings(deadline=None, max_examples=25)
@given(case=assignments())
def test_property_per_rank_plans_match_their_definitions(case):
    """The precomputed views equal the scans they replace."""
    num_ranks, assignment = case
    red = Task("norm", kind=TaskKind.REDUCTION, reduction_op=max)
    red.requires_(U, dw="new").computes_(NORM)
    grid = Grid(extent=(8, 8, 8), layout=(2, 2, 2))
    graph = TaskGraph(grid, [advance_task(), red], assignment, num_ranks)
    owned = []
    for r in range(num_ranks):
        mine = graph.local_patches(r)
        # id order, exactly this rank's patches
        assert [p.patch_id for p in mine] == sorted(p.patch_id for p in mine)
        assert mine == [p for p in grid.patches() if assignment[p.patch_id] == r]
        owned.extend(p.patch_id for p in mine)
        local = graph.local_tasks(r)
        assert graph.recvs_on(r) == [m for d in local for m in graph.recvs_for(d)]
        # the rank's reduction waits on exactly its own patches' kernels
        (reduce,) = [d for d in local if d.patch is None]
        assert graph.internal_deps[reduce.dt_id] == {d.dt_id for d in local if d.patch}
    assert sorted(owned) == list(range(grid.num_patches))  # a partition
    for dt in graph.detailed_tasks:
        assert graph.dependents_of(dt) == [
            o for o in graph.local_tasks(dt.rank) if dt.dt_id in graph.internal_deps[o.dt_id]
        ]


def test_old_dw_consumers_is_fresh_per_call():
    graph, _, _ = build(num_ranks=2)
    first = graph.old_dw_consumers(0)
    expect = dict(first)
    first.clear()
    assert graph.old_dw_consumers(0) == expect and expect
