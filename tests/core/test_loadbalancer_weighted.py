"""Tests for weighted load balancing and the compiled graph it feeds."""

import pytest
from hypothesis import given, settings, strategies as st

import networkx as nx

from repro.core.grid import Grid
from repro.core.loadbalancer import LoadBalancer
from repro.core.task import Task, TaskKind
from repro.core.taskgraph import TaskGraph
from repro.core.varlabel import VarLabel
from repro.sunway.corerates import KernelCost

U, V, NORM = VarLabel("u"), VarLabel("v"), VarLabel("n", vartype="reduction")
COST = KernelCost(stencil_flops=10, exp_calls=0)


def chain_graph(num_ranks=2):
    """advance -> smooth -> norm: a three-stage graph."""
    t1 = Task("advance", kind=TaskKind.CPE_KERNEL, kernel_cost=COST)
    t1.requires_(U, dw="old", ghosts=1).computes_(U)
    t2 = Task("smooth", kind=TaskKind.CPE_KERNEL, kernel_cost=COST)
    t2.requires_(U, dw="new", ghosts=1).computes_(V)
    t3 = Task("norm", kind=TaskKind.REDUCTION, reduction_op=max)
    t3.requires_(V, dw="new").computes_(NORM)
    grid = Grid(extent=(8, 8, 8), layout=(2, 2, 2))
    assignment = LoadBalancer("sfc").assign(grid, num_ranks)
    return TaskGraph(grid, [t1, t2, t3], assignment, num_ranks), grid


# -- the compiled graph -------------------------------------------------------------------

def test_networkx_agrees_its_a_dag():
    """The internal dependencies form a DAG over every detailed task."""
    graph, _ = chain_graph()
    g = nx.DiGraph()
    g.add_nodes_from(dt.dt_id for dt in graph.detailed_tasks)
    for consumer, producers in graph.internal_deps.items():
        g.add_edges_from((p, consumer) for p in producers)
    assert nx.is_directed_acyclic_graph(g)
    assert g.number_of_nodes() == len(graph.detailed_tasks)


# -- weighted load balancing -------------------------------------------------------------

GRID = Grid(extent=(16, 16, 16), layout=(4, 4, 2))


def test_weighted_balancing_evens_out_cost():
    """One heavy corner (AMR-style refinement hotspot): weighted cuts
    give much better balance than count-based cuts."""
    weights = {}
    for p in GRID.patches():
        hot = p.index[0] < 2 and p.index[1] < 2
        weights[p.patch_id] = 10.0 if hot else 1.0

    lb = LoadBalancer("sfc")
    unweighted = lb.assign(GRID, 4)
    weighted = lb.assign(GRID, 4, weights=weights)

    def imbalance(assignment):
        load = [0.0] * 4
        for pid, r in assignment.items():
            load[r] += weights[pid]
        return max(load) / (sum(load) / 4)

    assert imbalance(weighted) < imbalance(unweighted)
    assert imbalance(weighted) < 1.5


def test_weighted_covers_all_patches_and_ranks():
    weights = {p.patch_id: float(1 + p.patch_id % 7) for p in GRID.patches()}
    assignment = LoadBalancer("block").assign(GRID, 8, weights=weights)
    assert set(assignment) == {p.patch_id for p in GRID.patches()}
    assert set(assignment.values()) == set(range(8))


def test_weighted_validation():
    lb = LoadBalancer("sfc")
    with pytest.raises(ValueError, match="missing"):
        lb.assign(GRID, 2, weights={0: 1.0})
    bad = {p.patch_id: 1.0 for p in GRID.patches()}
    bad[3] = 0.0
    with pytest.raises(ValueError, match="positive"):
        lb.assign(GRID, 2, weights=bad)


def test_uniform_weights_match_unweighted_counts():
    lb = LoadBalancer("sfc")
    uniform = {p.patch_id: 1.0 for p in GRID.patches()}
    a = lb.assign(GRID, 4)
    b = lb.assign(GRID, 4, weights=uniform)
    counts_a = LoadBalancer.load_counts(a, 4)
    counts_b = LoadBalancer.load_counts(b, 4)
    assert counts_a == counts_b == [8, 8, 8, 8]


@settings(deadline=None, max_examples=30)
@given(
    num_ranks=st.integers(1, 16),
    seed=st.integers(0, 10_000),
)
def test_property_weighted_every_rank_nonempty(num_ranks, seed):
    import random

    rng = random.Random(seed)
    weights = {p.patch_id: rng.uniform(0.1, 10.0) for p in GRID.patches()}
    assignment = LoadBalancer("sfc").assign(GRID, num_ranks, weights=weights)
    counts = LoadBalancer.load_counts(assignment, num_ranks)
    assert all(c >= 1 for c in counts)
    assert sum(counts) == GRID.num_patches
