"""Tests for the compiled graph the load balancer's assignment feeds."""

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

