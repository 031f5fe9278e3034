"""The scheduler's cost model: work descriptions -> simulated MPE/CPE seconds.

Every scheduler action that burns MPE time (packing ghost slabs, posting
MPI operations, selecting tasks) and every kernel execution (CPE cluster
or MPE-only) is priced here, combining the architectural cost models of
:mod:`repro.sunway` with the tiling geometry of :mod:`repro.core.tiling`.

The numbers in :class:`SchedulerCosts`, :class:`SunwayCostModel` and
:class:`~repro.sunway.corerates.CoreRates` are *calibrated effective*
values, defined once as field defaults (``repro/harness/calibration.py``
records their provenance); the *formulas* here are structural and follow
the paper's Sec. V design.
"""

from __future__ import annotations

import dataclasses

from repro.core.grid import Grid
from repro.core.patch import Patch
from repro.core.task import Task
from repro.core.tiling import TilePlan, choose_tile_shape
from repro.sunway.athread import LAUNCH_LATENCY
from repro.sunway.config import CoreGroupConfig
from repro.sunway.corerates import CoreRates
from repro.sunway.dma import DMAEngine, DMAVolume


@dataclasses.dataclass(frozen=True)
class SchedulerCosts:
    """Fixed MPE-side bookkeeping costs of the scheduler itself."""

    #: Selecting a ready task and preparing its offload (steps 3(b)ii-iv).
    task_select: float = 25e-6
    #: Posting one non-blocking receive (step 3a).
    recv_post: float = 4e-6
    #: Posting one non-blocking send (step 3(b)i).
    send_post: float = 4e-6
    #: One sweep of MPI_Test over outstanding requests (step 3c).
    mpi_test: float = 2e-6
    #: Per-patch share of executing a local reduction task (step 3d).
    reduction_per_patch: float = 8e-6
    #: MPE cost per boundary-condition cell (exact-solution evaluation:
    #: three phi calls with two exponentials each, on the MPE).
    bc_s_per_cell: float = 320e-9


@dataclasses.dataclass
class SunwayCostModel:
    """Prices all scheduler and kernel work for one experiment variant.

    Parameters mirror the paper's Table IV variant axes: ``simd`` toggles
    the vectorized kernel, ``fast_exp`` the exponential library,
    ``async_dma`` / ``cpe_groups`` the future-work extensions (off to
    match the paper).
    """

    rates: CoreRates = dataclasses.field(default_factory=CoreRates)
    dma: DMAEngine = dataclasses.field(default_factory=DMAEngine)
    sched: SchedulerCosts = dataclasses.field(default_factory=SchedulerCosts)
    core_group: CoreGroupConfig = dataclasses.field(default_factory=CoreGroupConfig)
    simd: bool = False
    fast_exp: bool = True
    async_dma: bool = False
    cpe_groups: int = 1
    #: Future work (paper Sec. IX): keep tiles packed contiguously in main
    #: memory so every DMA is a single descriptor.
    pack_tiles: bool = False
    #: athread spawn latency per offload.
    launch_latency: float = LAUNCH_LATENCY

    #: Async-mode memory-interference factors (Sec. VII-C) of the scalar
    #: and the vectorized kernel; see :attr:`interference`.
    _INTERFERENCE_SCALAR = 0.04
    _INTERFERENCE_SIMD = 0.50

    def __post_init__(self) -> None:
        self._plan_cache: dict[tuple, TilePlan] = {}
        self._kernel_time_cache: dict[tuple, float] = {}
        self._dma_volume_cache: dict[tuple, DMAVolume] = {}
        self._mpe_part_cache: dict[tuple, float] = {}

    @property
    def interference(self) -> float:
        """Fraction of overlapped MPE busy time a kernel pays as memory
        interference debt: the compute-bound scalar kernel barely notices
        the shared memory controller, the near memory-bound SIMD kernel
        loses most of the overlap."""
        return self._INTERFERENCE_SIMD if self.simd else self._INTERFERENCE_SCALAR

    # -- tiling --------------------------------------------------------------
    def tile_plan(self, task: Task, patch: Patch) -> TilePlan:
        """The (cached) tile decomposition of ``patch`` for ``task``."""
        cpes = self.core_group.num_cpes // self.cpe_groups
        key = (task.name, patch.extent, cpes)
        plan = self._plan_cache.get(key)
        if plan is None:
            shape = choose_tile_shape(
                patch.extent,
                ldm_bytes=self.core_group.ldm_bytes,
                ghosts=1,
                fields_in=task.tile_fields_in,
                fields_out=task.tile_fields_out,
                num_cpes=cpes,
            )
            plan = TilePlan(
                patch_extent=patch.extent,
                tile_shape=shape,
                ghosts=1,
                fields_in=task.tile_fields_in,
                fields_out=task.tile_fields_out,
                num_cpes=cpes,
            )
            plan.validate_against_ldm(self.core_group.ldm_bytes)
            self._plan_cache[key] = plan
        return plan

    # -- kernel execution ------------------------------------------------------
    def cpe_kernel_time(self, task: Task, patch: Patch) -> float:
        """Cluster seconds for the offloaded kernel part on ``patch``."""
        if task.kernel_cost is None:
            raise ValueError(f"task {task.name!r} has no kernel cost model")
        # Kernel time depends only on the patch extent (tiling is
        # translation-invariant), so cache per (task, extent).
        key = (task.name, patch.extent)
        cached = self._kernel_time_cache.get(key)
        if cached is not None:
            return cached
        plan = self.tile_plan(task, patch)
        per_cpe = plan.per_cpe_work()
        # every launch also reads its DMA volume: fill that cache from
        # this walk of the plan instead of walking it again
        if key not in self._dma_volume_cache:
            self._dma_volume_cache[key] = self._dma_volume(per_cpe)
        if self.pack_tiles:
            per_cpe = [
                [dataclasses.replace(w, get_chunks=1, put_chunks=1) for w in tiles]
                for tiles in per_cpe
            ]
        t = self.rates.cluster_kernel_time(
            per_cpe,
            task.kernel_cost,
            self.dma,
            simd=self.simd,
            fast_exp=self.fast_exp,
            async_dma=self.async_dma,
        )
        self._kernel_time_cache[key] = t
        return t

    def mpe_kernel_time(self, task: Task, patch: Patch) -> float:
        """Seconds for the MPE to run the kernel itself (host.sync mode)."""
        if task.kernel_cost is None:
            raise ValueError(f"task {task.name!r} has no kernel cost model")
        ex = patch.extent
        plane_bytes = ex[0] * ex[1] * 8
        return self.rates.mpe_kernel_time(
            patch.num_cells, plane_bytes, task.kernel_cost, fast_exp=self.fast_exp
        )

    def mpe_task_time(self, task: Task, patch: Patch | None) -> float:
        """Seconds for a small MPE-kind task's kernel part."""
        if task.kernel_cost is not None and patch is not None:
            return self.mpe_kernel_time(task, patch)
        return self.sched.task_select  # pure-control tasks: bookkeeping only

    def mpe_part_time(self, task: Task, patch: Patch | None, grid: Grid) -> float:
        """Seconds for the MPE part run before offload (step 3(b)iii).

        For the model problem this is the boundary-condition fill: ghost
        cells on physical domain faces evaluated from the exact solution
        on the MPE.
        """
        if patch is None or task.mpe_action is None:
            return 0.0
        # Depends only on the patch extent and which of its faces lie on
        # the domain boundary, so cache per (task, extent, faces).
        faces = tuple(grid.boundary_faces(patch))
        key = (task.name, patch.extent, faces)
        cached = self._mpe_part_cache.get(key)
        if cached is not None:
            return cached
        cells = sum(patch.ghost_region(axis, side).num_cells for axis, side in faces)
        t = cells * self.sched.bc_s_per_cell
        self._mpe_part_cache[key] = t
        return t

    # -- communication-side MPE work ----------------------------------------------
    def pack_time(self, ncells: int, remote: bool) -> float:
        """Seconds for the MPE to pack or unpack ``ncells`` ghost cells."""
        return self.rates.pack_time(ncells, remote=remote)

    def reduction_local_time(self, num_local_patches: int) -> float:
        """Seconds for the MPE's local part of a reduction task."""
        return max(num_local_patches, 1) * self.sched.reduction_per_patch

    # -- accounting helpers -------------------------------------------------------
    def kernel_dma_volume(self, task: Task, patch: Patch) -> DMAVolume:
        """Aggregate DMA traffic of one kernel launch on ``patch``.

        Like :meth:`cpe_kernel_time` this depends only on the patch
        extent, so it is cached per ``(task, extent)`` (and filled by
        :meth:`cpe_kernel_time`'s walk of the tile plan) — every launch
        queries it without re-walking the plan.
        """
        key = (task.name, patch.extent)
        vol = self._dma_volume_cache.get(key)
        if vol is None:
            vol = self._dma_volume(self.tile_plan(task, patch).per_cpe_work())
            self._dma_volume_cache[key] = vol
        return vol

    def _dma_volume(self, per_cpe) -> DMAVolume:
        get_b = put_b = descriptors = 0
        for tiles in per_cpe:
            for w in tiles:
                get_b += w.get_bytes
                put_b += w.put_bytes
                if self.pack_tiles:
                    descriptors += 2  # one get + one put, fully packed
                else:
                    descriptors += w.get_chunks + w.put_chunks
        return DMAVolume(get_bytes=get_b, put_bytes=put_b, descriptors=descriptors)

    def kernel_flops(self, task: Task, patch: Patch) -> int:
        """Counted flops of one kernel execution (perf-counter convention)."""
        if task.kernel_cost is None:
            return 0
        return patch.num_cells * task.kernel_cost.flops_per_cell(self.fast_exp)
