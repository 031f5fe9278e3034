"""Tests for UDA-style checkpoint archives and bit-exact restart."""

import numpy as np
import pytest

from repro.burgers import BurgersProblem
from repro.core.controller import SimulationController
from repro.core.grid import Grid
from repro.io.uda import UdaArchive, load_checkpoint, restart_tasks, save_checkpoint


def run_burgers(nsteps, num_ranks=2, init_tasks=None, t0=0.0, grid=None):
    grid = grid or Grid(extent=(16, 16, 16), layout=(2, 2, 2))
    prob = BurgersProblem(grid)
    ctl = SimulationController(
        grid,
        prob.tasks(),
        init_tasks if init_tasks is not None else prob.init_tasks(),
        num_ranks=num_ranks,
        mode="async",
        real=True,
    )
    dt = prob.stable_dt()
    res = ctl.run(nsteps=nsteps, dt=dt)
    return grid, prob, res, dt


def collect(res):
    return {
        v.patch.patch_id: v.interior.copy()
        for dw in res.final_dws
        for v in dw.grid_variables()
    }


def test_save_load_roundtrip(tmp_path):
    grid, prob, res, dt = run_burgers(3)
    save_checkpoint(tmp_path / "out.uda", grid, res.final_dws, step=3, time=res.sim_time)
    ck = load_checkpoint(tmp_path / "out.uda")
    assert ck.step == 3
    assert ck.time == pytest.approx(res.sim_time)
    assert ck.grid.extent == grid.extent and ck.grid.layout == grid.layout
    ref = collect(res)
    assert set(ck.fields["u"]) == set(ref)
    for pid, arr in ck.fields["u"].items():
        assert np.array_equal(arr, ref[pid])
    # the uNorm reduction was archived too
    assert "uNorm" in ck.reductions


def test_restart_continues_bit_exactly(tmp_path):
    """4 steps + checkpoint + 4 restarted steps == 8 straight steps."""
    grid, prob, first, dt = run_burgers(4)
    save_checkpoint(tmp_path / "ck.uda", grid, first.final_dws, 4, first.sim_time)

    ck = load_checkpoint(tmp_path / "ck.uda")
    prob2 = BurgersProblem(ck.grid)
    ctl = SimulationController(
        ck.grid, prob2.tasks(), restart_tasks(ck, prob2.u_label),
        num_ranks=2, mode="async", real=True,
    )
    resumed = ctl.run(nsteps=4, dt=dt, start_step=ck.step)

    _, _, straight, _ = run_burgers(8)
    a, b = collect(resumed), collect(straight)
    for pid in b:
        assert np.array_equal(a[pid], b[pid]), pid


def test_restart_across_different_rank_count(tmp_path):
    """Checkpoint on 2 ranks, restart on 4: identical physics."""
    grid, prob, first, dt = run_burgers(3, num_ranks=2)
    save_checkpoint(tmp_path / "ck.uda", grid, first.final_dws, 3, first.sim_time)
    ck = load_checkpoint(tmp_path / "ck.uda")
    prob2 = BurgersProblem(ck.grid)
    ctl = SimulationController(
        ck.grid, prob2.tasks(), restart_tasks(ck, prob2.u_label),
        num_ranks=4, mode="sync", real=True,
    )
    resumed = ctl.run(nsteps=3, dt=dt, start_step=ck.step)
    _, _, straight, _ = run_burgers(6)
    a, b = collect(resumed), collect(straight)
    for pid in b:
        assert np.array_equal(a[pid], b[pid]), pid


def test_multiple_steps_in_one_archive(tmp_path):
    grid, prob, r1, dt = run_burgers(2)
    arch = UdaArchive(tmp_path / "multi.uda")
    arch.save(grid, r1.final_dws, 2, r1.sim_time)
    _, _, r2, _ = run_burgers(5)
    arch.save(grid, r2.final_dws, 5, r2.sim_time)
    assert arch.steps() == [2, 5]
    assert arch.load().step == 5  # default: latest
    assert arch.load(step=2).step == 2
    with pytest.raises(KeyError):
        arch.load(step=3)


def test_index_write_broken_off_keeps_previous_checkpoint(tmp_path, monkeypatch):
    """A crash halfway through rewriting ``index.json`` must leave the
    previous checkpoint loadable, not a truncated index."""
    import pathlib

    grid, prob, r1, dt = run_burgers(2)
    arch = UdaArchive(tmp_path / "torn.uda")
    arch.save(grid, r1.final_dws, 2, r1.sim_time)
    _, _, r2, _ = run_burgers(3)

    real_write = pathlib.Path.write_text

    def write_half_of_the_index(self, data, *args, **kwargs):
        if self.name.startswith("index.json"):
            real_write(self, data[: len(data) // 2], *args, **kwargs)
            raise OSError("No space left on device")
        return real_write(self, data, *args, **kwargs)

    monkeypatch.setattr(pathlib.Path, "write_text", write_half_of_the_index)
    with pytest.raises(OSError, match="No space"):
        arch.save(grid, r2.final_dws, 3, r2.sim_time)
    monkeypatch.undo()

    ck = arch.load()
    assert ck.step == 2 and arch.steps() == [2]
    ref = collect(r1)
    assert set(ck.fields["u"]) == set(ref)
    for pid, arr in ck.fields["u"].items():
        assert np.array_equal(arr, ref[pid])
    assert sorted(p.name for p in arch.root.glob("*.json*")) == ["index.json"]


def test_archive_grid_mismatch_rejected(tmp_path):
    grid, prob, res, dt = run_burgers(1)
    arch = UdaArchive(tmp_path / "a.uda")
    arch.save(grid, res.final_dws, 1, res.sim_time)
    other = Grid(extent=(8, 8, 8), layout=(2, 2, 2))
    _, _, res2, _ = run_burgers(1, grid=other)
    with pytest.raises(ValueError, match="belongs to a grid"):
        arch.save(other, res2.final_dws, 2, 0.0)


def test_missing_archive_and_field_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "nope.uda")
    grid, prob, res, dt = run_burgers(1)
    save_checkpoint(tmp_path / "b.uda", grid, res.final_dws, 1, res.sim_time)
    ck = load_checkpoint(tmp_path / "b.uda")
    from repro.core.varlabel import VarLabel

    with pytest.raises(KeyError, match="no field"):
        restart_tasks(ck, VarLabel("pressure"))


def test_restart_shape_mismatch_detected(tmp_path):
    grid, prob, res, dt = run_burgers(1)
    save_checkpoint(tmp_path / "c.uda", grid, res.final_dws, 1, res.sim_time)
    ck = load_checkpoint(tmp_path / "c.uda")
    # sabotage one patch
    pid = next(iter(ck.fields["u"]))
    ck.fields["u"][pid] = np.zeros((2, 2, 2))
    prob2 = BurgersProblem(ck.grid)
    ctl = SimulationController(
        ck.grid, prob2.tasks(), restart_tasks(ck, prob2.u_label),
        num_ranks=1, mode="async", real=True,
    )
    with pytest.raises(ValueError, match="shape"):
        ctl.run(nsteps=1, dt=dt)
