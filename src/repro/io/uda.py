"""UDA-style checkpoint archives: save, load, restart.

Archive layout (a light-weight analogue of Uintah's UDA directories)::

    <archive>/
      index.json          grid geometry, labels, checkpointed steps
      t<step>/
        meta.json         step number, simulation time, reductions
        patch<id>.npy     interior cells of each grid variable/patch
                          (one file per (label, patch))

Grid variables are stored interior-only (ghosts are reconstructed by the
first restarted timestep's exchange + boundary conditions, exactly as
after initialization), Fortran-ordered, float64.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import typing as _t

import numpy as np

from repro.core.datawarehouse import DataWarehouse
from repro.core.grid import Grid
from repro.core.task import Task, TaskContext, TaskKind
from repro.core.varlabel import VarLabel

_FORMAT_VERSION = 1


def _publish(path: pathlib.Path, text: str) -> None:
    """Replace ``path`` with ``text`` all at once: write a temp file in
    the same directory, then rename it over ``path``.  A write broken off
    halfway leaves the previous file whole."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


@dataclasses.dataclass
class Checkpoint:
    """One loaded checkpoint: everything needed to restart."""

    grid: Grid
    step: int
    time: float
    #: ``{label_name: {patch_id: interior ndarray}}``
    fields: dict[str, dict[int, np.ndarray]]
    #: ``{label_name: value}`` for reduction variables.
    reductions: dict[str, float]


class UdaArchive:
    """A checkpoint archive rooted at a directory."""

    def __init__(self, root: str | pathlib.Path):
        self.root = pathlib.Path(root)

    # -- writing -------------------------------------------------------------
    def save(
        self,
        grid: Grid,
        dws: _t.Sequence[DataWarehouse],
        step: int,
        time: float,
    ) -> pathlib.Path:
        """Archive the grid variables and reductions of one timestep.

        ``dws`` are the per-rank data warehouses holding that step's
        state (e.g. ``RunResult.final_dws``).
        """
        self.root.mkdir(parents=True, exist_ok=True)
        step_dir = self.root / f"t{step:05d}"
        step_dir.mkdir(exist_ok=True)

        labels: dict[str, dict] = {}
        reductions: dict[str, float] = {}
        for dw in dws:
            for var in dw.grid_variables():
                labels.setdefault(
                    var.label.name, {"vartype": "cell", "itemsize": var.label.itemsize}
                )
                np.save(
                    step_dir / f"{var.label.name}-patch{var.patch.patch_id:04d}.npy",
                    np.asfortranarray(var.interior),
                )
            for name, value in dw._reductions.items():
                labels.setdefault(name, {"vartype": "reduction", "itemsize": 8})
                reductions[name] = value

        _publish(
            step_dir / "meta.json",
            json.dumps({"step": step, "time": time, "reductions": reductions}, indent=2),
        )

        index_path = self.root / "index.json"
        index = (
            json.loads(index_path.read_text())
            if index_path.exists()
            else {
                "format": _FORMAT_VERSION,
                "grid": {
                    "extent": list(grid.extent),
                    "layout": list(grid.layout),
                    "domain_low": list(grid.domain_low),
                    "domain_high": list(grid.domain_high),
                },
                "labels": {},
                "steps": [],
            }
        )
        if tuple(index["grid"]["extent"]) != grid.extent:
            raise ValueError(
                f"archive {self.root} belongs to a grid of extent "
                f"{index['grid']['extent']}, not {grid.extent}"
            )
        index["labels"].update(labels)
        if step not in index["steps"]:
            index["steps"].append(step)
            index["steps"].sort()
        _publish(index_path, json.dumps(index, indent=2))
        return step_dir

    # -- reading ----------------------------------------------------------------
    def steps(self) -> list[int]:
        """Checkpointed step numbers, ascending."""
        return list(self._index()["steps"])

    def _index(self) -> dict:
        index_path = self.root / "index.json"
        if not index_path.exists():
            raise FileNotFoundError(f"no UDA index at {index_path}")
        index = json.loads(index_path.read_text())
        if index.get("format") != _FORMAT_VERSION:
            raise ValueError(f"unsupported archive format {index.get('format')!r}")
        return index

    def load(self, step: int | None = None) -> Checkpoint:
        """Load a checkpoint (default: the latest archived step)."""
        index = self._index()
        if not index["steps"]:
            raise ValueError(f"archive {self.root} holds no checkpoints")
        if step is None:
            step = index["steps"][-1]
        if step not in index["steps"]:
            raise KeyError(f"step {step} not archived; have {index['steps']}")
        g = index["grid"]
        grid = Grid(
            extent=tuple(g["extent"]),
            layout=tuple(g["layout"]),
            domain_low=tuple(g["domain_low"]),
            domain_high=tuple(g["domain_high"]),
        )
        step_dir = self.root / f"t{step:05d}"
        meta = json.loads((step_dir / "meta.json").read_text())
        fields: dict[str, dict[int, np.ndarray]] = {}
        for name, info in index["labels"].items():
            if info["vartype"] != "cell":
                continue
            per_patch: dict[int, np.ndarray] = {}
            for path in sorted(step_dir.glob(f"{name}-patch*.npy")):
                pid = int(path.stem.rsplit("patch", 1)[1])
                per_patch[pid] = np.load(path)
            if per_patch:
                fields[name] = per_patch
        return Checkpoint(
            grid=grid,
            step=meta["step"],
            time=meta["time"],
            fields=fields,
            reductions=dict(meta.get("reductions", {})),
        )


def save_checkpoint(
    root: str | pathlib.Path,
    grid: Grid,
    dws: _t.Sequence[DataWarehouse],
    step: int,
    time: float,
) -> pathlib.Path:
    """Convenience wrapper: archive one step under ``root``."""
    return UdaArchive(root).save(grid, dws, step, time)


def load_checkpoint(root: str | pathlib.Path, step: int | None = None) -> Checkpoint:
    """Convenience wrapper: load a checkpoint from ``root``."""
    return UdaArchive(root).load(step)


def restart_tasks(checkpoint: Checkpoint, label: VarLabel, ghosts: int = 1) -> list[Task]:
    """An initialization graph restoring ``label`` from a checkpoint.

    Use in place of the application's ``init_tasks()``::

        ck = load_checkpoint("out.uda")
        controller = SimulationController(
            ck.grid, problem.tasks(), restart_tasks(ck, problem.u_label), ...)
        controller.run(nsteps, dt, start_step=ck.step)

    Restart is bit-exact: the restored field equals the archived one and
    continuation matches an uninterrupted run (tested).
    """
    per_patch = checkpoint.fields.get(label.name)
    if per_patch is None:
        raise KeyError(
            f"checkpoint has no field {label.name!r}; has {sorted(checkpoint.fields)}"
        )

    def restore(ctx: TaskContext) -> None:
        var = ctx.new_dw.allocate_and_put(label, ctx.patch, ghosts=ghosts)
        try:
            data = per_patch[ctx.patch.patch_id]
        except KeyError:
            raise KeyError(
                f"checkpoint misses patch {ctx.patch.patch_id} of {label.name!r}"
            ) from None
        if data.shape != var.interior.shape:
            raise ValueError(
                f"checkpoint patch {ctx.patch.patch_id} has shape {data.shape}, "
                f"grid expects {var.interior.shape}"
            )
        var.interior[...] = data

    task = Task(f"restart:{label.name}", kind=TaskKind.MPE, action=restore)
    task.computes_(label)
    return [task]
