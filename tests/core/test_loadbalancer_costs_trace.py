"""Tests for the load balancer, cost model and tracer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.costs import SunwayCostModel
from repro.core.grid import Grid
from repro.core.loadbalancer import LoadBalancer
from repro.core.task import Task, TaskKind
from repro.core.trace import Span, Tracer
from repro.sunway.corerates import KernelCost


# -- LoadBalancer ----------------------------------------------------------------

GRID = Grid(extent=(16, 16, 16), layout=(4, 4, 2))  # 32 patches


def patch_counts(assignment, num_ranks):
    counts = [0] * num_ranks
    for r in assignment.values():
        counts[r] += 1
    return counts


def test_all_strategies_cover_all_patches():
    assignment = LoadBalancer().assign(GRID, 4)
    assert set(assignment) == {p.patch_id for p in GRID.patches()}
    assert set(assignment.values()) == {0, 1, 2, 3}


def test_balance_even_division():
    assignment = LoadBalancer().assign(GRID, 8)
    assert patch_counts(assignment, 8) == [4] * 8


def test_balance_uneven_division():
    counts = patch_counts(LoadBalancer().assign(GRID, 5), 5)
    assert sum(counts) == 32
    assert max(counts) - min(counts) <= 1


def test_sfc_keeps_ranks_spatially_compact():
    """Morton chunks should cut fewer remote faces than round-robin."""

    def remote_faces(assignment):
        n = 0
        for p in GRID.patches():
            for _a, _s, nb in GRID.face_neighbors(p):
                if assignment[p.patch_id] != assignment[nb.patch_id]:
                    n += 1
        return n

    sfc = remote_faces(LoadBalancer().assign(GRID, 8))
    rr = remote_faces({p.patch_id: p.patch_id % 8 for p in GRID.patches()})
    assert sfc < rr


def test_validation():
    with pytest.raises(ValueError):
        LoadBalancer().assign(GRID, 0)
    with pytest.raises(ValueError, match="one patch per CG"):
        LoadBalancer().assign(GRID, 33)


def test_deterministic():
    a = LoadBalancer().assign(GRID, 4)
    b = LoadBalancer().assign(GRID, 4)
    assert a == b


# -- SunwayCostModel ----------------------------------------------------------------

KERNEL = Task(
    "k",
    kind=TaskKind.CPE_KERNEL,
    kernel_cost=KernelCost(stencil_flops=95, exp_calls=6),
    mpe_action=lambda ctx: None,
)
PAPER_GRID = Grid(extent=(128, 128, 1024), layout=(8, 8, 2))
PATCH = PAPER_GRID.patch((0, 0, 0))  # 16x16x512, on the domain corner


def test_cpe_kernel_time_positive_and_cached():
    cm = SunwayCostModel()
    t1 = cm.cpe_kernel_time(KERNEL, PATCH)
    t2 = cm.cpe_kernel_time(KERNEL, PATCH)
    assert t1 > 0 and t1 == t2


def test_simd_kernel_faster():
    scalar = SunwayCostModel(simd=False).cpe_kernel_time(KERNEL, PATCH)
    simd = SunwayCostModel(simd=True).cpe_kernel_time(KERNEL, PATCH)
    assert 1.5 < scalar / simd < 3.0


def test_mpe_kernel_much_slower_than_cluster():
    cm = SunwayCostModel()
    assert cm.mpe_kernel_time(KERNEL, PATCH) > 2 * cm.cpe_kernel_time(KERNEL, PATCH)


def test_ieee_exp_variant_slower():
    fast = SunwayCostModel(fast_exp=True).cpe_kernel_time(KERNEL, PATCH)
    ieee = SunwayCostModel(fast_exp=False).cpe_kernel_time(KERNEL, PATCH)
    assert ieee > fast


def test_async_dma_extension_not_slower():
    base = SunwayCostModel(async_dma=False).cpe_kernel_time(KERNEL, PATCH)
    dbuf = SunwayCostModel(async_dma=True).cpe_kernel_time(KERNEL, PATCH)
    assert dbuf <= base


def test_cpe_groups_use_fewer_cpes():
    whole = SunwayCostModel(cpe_groups=1).cpe_kernel_time(KERNEL, PATCH)
    quarter = SunwayCostModel(cpe_groups=4).cpe_kernel_time(KERNEL, PATCH)
    assert quarter > whole  # 16 CPEs per group take longer per kernel


def test_mpe_part_time_counts_boundary_ghosts():
    cm = SunwayCostModel()
    corner = PAPER_GRID.patch((0, 0, 0))
    interior_xy = PAPER_GRID.patch((3, 3, 0))  # boundary only in z
    assert cm.mpe_part_time(KERNEL, corner, PAPER_GRID) > cm.mpe_part_time(
        KERNEL, interior_xy, PAPER_GRID
    )
    no_mpe_part = Task("n", kind=TaskKind.CPE_KERNEL, kernel_cost=KERNEL.kernel_cost)
    assert cm.mpe_part_time(no_mpe_part, corner, PAPER_GRID) == 0.0


def test_kernel_flops_matches_table1_budget():
    cm = SunwayCostModel(fast_exp=True)
    assert cm.kernel_flops(KERNEL, PATCH) == PATCH.num_cells * 311


def test_missing_kernel_cost_raises():
    plain = Task("m", kind=TaskKind.MPE)
    cm = SunwayCostModel()
    with pytest.raises(ValueError):
        cm.cpe_kernel_time(plain, PATCH)
    assert cm.kernel_flops(plain, PATCH) == 0


# -- Tracer --------------------------------------------------------------------------

def test_span_validation():
    with pytest.raises(ValueError):
        Span(0, "mpe", "x", 2.0, 1.0)
    assert Span(0, "mpe", "x", 1.0, 3.0).duration == 2.0


def test_tracer_busy_time_merges_overlaps():
    tr = Tracer()
    tr.record(0, "mpe", "a", 0.0, 2.0)
    tr.record(0, "mpe", "b", 1.0, 3.0)  # overlapping spans union to [0,3]
    tr.record(0, "mpe", "c", 5.0, 6.0)
    assert tr.busy_time(0, "mpe") == pytest.approx(4.0)


def test_tracer_overlap_time():
    tr = Tracer()
    tr.record(0, "mpe", "pack", 1.0, 4.0)
    tr.record(0, "cpe", "kernel", 2.0, 6.0)
    assert tr.overlap_time(0) == pytest.approx(2.0)
    assert tr.overlap_time(1) == 0.0


def test_disabled_tracer_records_nothing():
    tr = Tracer(enabled=False)
    tr.record(0, "mpe", "a", 0.0, 1.0)
    assert tr.spans == []


def test_timeline_render():
    tr = Tracer()
    tr.record(0, "mpe", "a", 0.0, 1.0)
    tr.record(0, "cpe", "k", 0.5, 2.0)
    art = tr.timeline(0, width=40)
    assert "mpe" in art and "cpe" in art and "#" in art
    assert tr.timeline(3) == "rank 3: (no spans)"


@settings(deadline=None, max_examples=30)
@given(
    spans=st.lists(
        st.tuples(st.floats(0, 100), st.floats(0, 10)), min_size=1, max_size=20
    )
)
def test_property_overlap_bounded_by_busy(spans):
    tr = Tracer()
    for i, (t0, d) in enumerate(spans):
        lane = "mpe" if i % 2 else "cpe"
        tr.record(0, lane, f"s{i}", t0, t0 + d)
    ov = tr.overlap_time(0)
    assert ov <= tr.busy_time(0, "mpe") + 1e-9
    assert ov <= tr.busy_time(0, "cpe") + 1e-9


def test_tracer_summarize_folds_task_names():
    tr = Tracer()
    tr.record(0, "mpe", "mpe-part:timeAdvance@p3", 0.0, 1.0)
    tr.record(0, "mpe", "mpe-part:timeAdvance@p4", 1.0, 3.0)
    tr.record(0, "cpe", "timeAdvance@p3", 0.0, 5.0)
    tr.record(1, "mpe", "copy", 0.0, 0.5)
    summary = tr.summarize(rank=0)
    assert summary[("mpe-part:timeAdvance", "mpe")]["count"] == 2
    assert summary[("mpe-part:timeAdvance", "mpe")]["total"] == pytest.approx(3.0)
    assert summary[("mpe-part:timeAdvance", "mpe")]["mean"] == pytest.approx(1.5)
    assert ("copy", "mpe") not in summary  # rank filter
    assert tr.summarize()[("copy", "mpe")]["count"] == 1


def test_tracer_summarize_keeps_lanes_distinct():
    # regression: the same folded activity name on both lanes used to be
    # merged into one entry, mixing MPE seconds into CPE totals
    tr = Tracer()
    tr.record(0, "cpe", "timeAdvance@p1", 0.0, 5.0)
    tr.record(0, "mpe", "timeAdvance@p1", 0.0, 1.0)  # e.g. an MPE fallback
    summary = tr.summarize(rank=0)
    assert summary[("timeAdvance", "cpe")]["total"] == pytest.approx(5.0)
    assert summary[("timeAdvance", "cpe")]["count"] == 1
    assert summary[("timeAdvance", "mpe")]["total"] == pytest.approx(1.0)
    assert summary[("timeAdvance", "mpe")]["lane"] == "mpe"


def test_tracer_chrome_export():
    import json

    tr = Tracer()
    tr.record(0, "mpe", "pack", 0.0, 1e-3)
    tr.record(0, "cpe", "kernel", 0.0, 2e-3)
    tr.record(1, "mpe", "pack", 0.0, 1e-3)
    events = tr.to_chrome_trace()
    json.dumps(events)  # must be serializable
    metas = [e for e in events if e["ph"] == "M"]
    spans = [e for e in events if e["ph"] == "X"]
    # 2 process_name (ranks 0, 1) + 3 thread_name (lanes) metadata events
    process_metas = [m for m in metas if m["name"] == "process_name"]
    thread_metas = [m for m in metas if m["name"] == "thread_name"]
    assert len(process_metas) == 2 and len(thread_metas) == 3
    assert {m["args"]["name"] for m in process_metas} == {"rank 0", "rank 1"}
    assert len(spans) == 3
    kernel = next(e for e in spans if e["name"] == "kernel")
    assert kernel["dur"] == pytest.approx(2000.0)  # microseconds
    assert kernel["pid"] == 0
    # span events are sorted for stable diffs
    keys = [(e["ts"], e["pid"], e["tid"]) for e in spans]
    assert keys == sorted(keys)
