"""The communication engine.

The O(1) ``MPI_Test``: ``CommEngine.harvest_recvs`` rescans its posted
receives only when the fabric's per-rank completion count moved, and must
never lose or duplicate a harvest compared with a full rescan.

The ghost data path: slabs are copied in place, packed only to be sent
or stashed, and their slices are compiled once per rank."""

import collections
import types

from repro.burgers import BurgersProblem
from repro.core.controller import SimulationController
from repro.core.grid import Grid
from repro.core.schedulers.commengine import CommEngine
from repro.core.taskgraph import CopySpec
from repro.core.variables import CCVariable
from repro.des import Simulator
from repro.harness import calibration
from repro.simmpi import Comm, Fabric
from tests.strategies import build_pipeline, run_workload


class _NoScan(list):
    """A receive list that fails the test if anyone iterates it."""

    def __iter__(self):
        raise AssertionError("recv_watch was rescanned")


def _engine(rank=0, num_ranks=2):
    sim = Simulator()
    fabric = Fabric(sim, num_ranks)
    comms = [Comm(fabric, r) for r in range(num_ranks)]
    plan = types.SimpleNamespace(scrub_counts={}, bootstrap_scrub_counts={})
    sched = types.SimpleNamespace(rank=rank, comm=comms[rank], plan=plan)
    return CommEngine(sched, types.SimpleNamespace(bootstrap=False)), comms


def _idle_test_skips_the_scan(comm) -> bool:
    watch = comm.recv_watch
    comm.recv_watch = _NoScan(watch)
    try:
        return comm.harvest_recvs() is None
    finally:
        comm.recv_watch = watch


def _harvest_names(comm):
    got = comm.harvest_recvs()
    return None if got is None else [spec for spec, _cost, _payload in got]


def test_harvest_neither_loses_nor_duplicates():
    comm, (c0, c1) = _engine()
    c1.isend(dest=0, tag=1, nbytes=8, payload="a")
    ra = c0.irecv(source=1, tag=1)  # matched at post, before any scan
    rb = c0.irecv(source=0, tag=2)  # a self-message, sent later
    rc = c0.irecv(source=1, tag=3)
    comm.recv_watch = [("a", 0.5, ra), ("b", 0.5, rb), ("c", 0.5, rc)]

    assert comm.harvest_recvs() == [("a", 0.5, "a")]
    assert _idle_test_skips_the_scan(comm)

    c0.isend(dest=0, tag=2, nbytes=8, payload="b")
    assert _harvest_names(comm) == ["b"]

    # a completion for another rank moves only that rank's count
    c0.isend(dest=1, tag=9, nbytes=8)
    c1.irecv(source=0, tag=9)
    assert _idle_test_skips_the_scan(comm)

    c1.isend(dest=0, tag=3, nbytes=8, payload="c")
    assert _harvest_names(comm) == ["c"]
    assert comm.recv_watch == []
    assert comm.harvest_recvs() is None


def test_harvest_matches_a_full_rescan_in_a_model_run(monkeypatch):
    """Every MPI test of a 4-rank run returns exactly what rescanning
    every posted receive would, and every receive is harvested once."""
    original = CommEngine.harvest_recvs
    calls = {"tests": 0, "harvested": 0, "posted": 0}

    def checked(self):
        expected = [(s, c, r.value) for s, c, r in self.recv_watch if r.complete]
        pending = [(s, c, r) for s, c, r in self.recv_watch if not r.complete]
        got = original(self)
        assert (got or []) == expected
        if expected:
            assert self.recv_watch == pending
        calls["tests"] += 1
        calls["harvested"] += len(expected)
        return got

    original_post = CommEngine.post_recvs

    def counting_post(self):
        yield from original_post(self)
        calls["posted"] += len(self.recv_watch)

    monkeypatch.setattr(CommEngine, "harvest_recvs", checked)
    monkeypatch.setattr(CommEngine, "post_recvs", counting_post)
    grid = Grid(extent=(32, 32, 64), layout=(2, 2, 4))
    prob = BurgersProblem(grid, fast_exp=True)
    ctl = SimulationController(
        grid,
        prob.tasks(),
        prob.init_tasks(),
        num_ranks=4,
        mode="async",
        real=False,
        fabric_config=calibration.FABRIC,
        scheduler_kwargs=calibration.scheduler_kwargs(),
    )
    res = ctl.run(nsteps=3, dt=prob.stable_dt())
    assert calls["posted"] > 0
    assert calls["harvested"] == calls["posted"] == res.stats.messages_received
    assert calls["tests"] > calls["harvested"]


def _count_data_path(monkeypatch):
    """Count packs, ``set_region`` calls, slice compiles and stashes."""
    counts = collections.Counter()
    in_flush = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if in_flush and name == "set_region":
                counts["flushed"] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(CCVariable, "get_region", counted("packs", CCVariable.get_region))
    monkeypatch.setattr(CCVariable, "set_region", counted("set_region", CCVariable.set_region))
    monkeypatch.setattr(
        CCVariable, "local_slices", counted("slice_builds", CCVariable.local_slices)
    )
    stash, flush = CommEngine._stash, CommEngine.flush_stash

    def counting_stash(self, spec, payload):
        counts["stashed_copies" if isinstance(spec, CopySpec) else "stashed_unpacks"] += 1
        stash(self, spec, payload)

    def counting_flush(self, dt):
        in_flush.append(dt)
        try:
            flush(self, dt)
        finally:
            in_flush.pop()

    monkeypatch.setattr(CommEngine, "_stash", counting_stash)
    monkeypatch.setattr(CommEngine, "flush_stash", counting_flush)
    return counts


def test_only_sends_and_stashed_copies_pack(monkeypatch):
    """A local copy into an existing variable writes slab to slab; only
    sends and stashed copies pack a temporary.  ``set_region`` runs once
    per unpack (at once, or when its stash is flushed) and once per
    stashed copy.  A three-stage pipeline with new-DW ghosts on three
    ranks stashes both kinds."""
    counts = _count_data_path(monkeypatch)
    tasks, init, _labels = build_pipeline(3, [1, 0, 1], with_reduction=False)
    _fields, res = run_workload(tasks, init, 3, "async", 3)
    assert counts["stashed_copies"] > 0 and counts["stashed_unpacks"] > 0
    assert res.stats.local_copies > counts["stashed_copies"]
    assert counts["packs"] == res.stats.messages_sent + counts["stashed_copies"]
    assert counts["set_region"] == res.stats.messages_received + counts["stashed_copies"]
    assert counts["flushed"] == counts["stashed_copies"] + counts["stashed_unpacks"]


def test_slab_slices_are_compiled_once_per_rank(monkeypatch):
    """A real Burgers run compiles each slab's slices once per rank and
    end (source or destination variable) and each boundary ghost face's
    once per patch; later steps rebuild none.  A model-mode run builds
    no slab table at all."""
    counts = _count_data_path(monkeypatch)
    grid = Grid(extent=(16, 16, 16), layout=(4, 2, 2))
    prob = BurgersProblem(grid)
    ctl = SimulationController(grid, prob.tasks(), prob.init_tasks(), num_ranks=3, real=True)
    assert not any("slabs" in vars(s) for s in ctl.schedulers)  # built by run, lazily
    res = ctl.run(nsteps=3, dt=prob.stable_dt())
    graph = ctl.graph
    assert sum(len(s.slabs) for s in ctl.schedulers) == 2 * (
        len(graph.copies) + len(graph.messages)
    )
    faces = sum(len(grid.boundary_faces(p)) for p in grid.patches())
    assert counts["slice_builds"] == 2 * (len(graph.copies) + len(graph.messages)) + faces
    assert counts["packs"] == res.stats.messages_sent
    assert counts["set_region"] == res.stats.messages_received

    model = SimulationController(
        grid, prob.tasks(), prob.init_tasks(), num_ranks=3, real=False
    )
    model.run(nsteps=3, dt=prob.stable_dt())
    assert not any("slabs" in vars(s) for s in model.schedulers + model.init_schedulers)
