"""Unit tests for the invariant catalog and the validator's audit hooks."""

import types

import pytest

from repro.core.datawarehouse import DataWarehouse
from repro.core.grid import Grid
from repro.core.schedulers.lifecycle import LifecycleEvent, TaskState
from repro.core.varlabel import VarLabel
from repro.verify import CATALOG, ScheduleValidator, VerificationError, Violation


# ---------------------------------------------------------------- catalog
def test_catalog_is_keyed_by_identifier():
    assert len(CATALOG) == 14
    for ident, inv in CATALOG.items():
        assert inv.ident == ident
        assert inv.family in {"lifecycle", "flag", "dw", "ldm"}
        assert inv.statement


def test_violation_rejects_unknown_invariant():
    with pytest.raises(ValueError, match="unknown invariant"):
        Violation("not-a-thing", rank=0, step=0, task=None, t=0.0, detail="")


def test_violation_round_trips_and_renders():
    v = Violation(
        "ldm-overflow", rank=1, step=3, task="advect", t=2.5, detail="70000 B"
    )
    assert v.family == "ldm"
    d = v.to_dict()
    assert d["invariant"] == "ldm-overflow" and d["family"] == "ldm"
    rendered = v.render()
    assert "[ldm-overflow]" in rendered
    assert "task=advect" in rendered
    assert "70000 B" in rendered


# ---------------------------------------------------------------- rank mirror
def _empty_graph():
    return types.SimpleNamespace(
        internal_deps={},
        recvs_for=lambda dt: [],
        copies_for=lambda dt: [],
    )


def test_event_for_unregistered_task_is_unknown_task():
    v = ScheduleValidator()
    rv = v.subscriber_for(0, _empty_graph(), costs=None)
    rv(LifecycleEvent("step-begin", None, None, 0.0, {"tasks": [], "step": 0}))
    ghost = types.SimpleNamespace(dt_id=999, name="ghost", patch=None)
    rv(LifecycleEvent("transition", ghost, TaskState.READY, 1.0, {}))
    assert [x.invariant for x in v.violations] == ["unknown-task"]
    assert v.violations[0].task == "ghost"


def test_strict_mode_raises_at_first_violation():
    v = ScheduleValidator(strict=True)
    rv = v.subscriber_for(0, _empty_graph(), costs=None)
    rv(LifecycleEvent("step-begin", None, None, 0.0, {"tasks": [], "step": 0}))
    ghost = types.SimpleNamespace(dt_id=1, name="ghost", patch=None)
    with pytest.raises(VerificationError, match="unknown-task"):
        rv(LifecycleEvent("transition", ghost, TaskState.READY, 0.0, {}))


def test_report_counts_per_invariant():
    v = ScheduleValidator()
    rv = v.subscriber_for(0, _empty_graph(), costs=None)
    rv(LifecycleEvent("step-begin", None, None, 0.0, {"tasks": [], "step": 0}))
    for i in range(3):
        ghost = types.SimpleNamespace(dt_id=100 + i, name=f"g{i}", patch=None)
        rv(LifecycleEvent("transition", ghost, TaskState.READY, 0.0, {}))
    report = v.report()
    assert report["ok"] is False
    assert report["num_violations"] == 3
    assert report["per_invariant"] == {"unknown-task": 3}
    assert len(report["violations"]) == 3


# ---------------------------------------------------------------- flag audit
class _FakeFlag:
    observer = None


def _validator_with_flag():
    v = ScheduleValidator()
    v.subscriber_for(0, _empty_graph(), costs=None)
    flag = _FakeFlag()
    v.watch_flag(0, flag)
    return v, flag.observer


def test_flag_nonmonotone_bump_is_flagged():
    v, audit = _validator_with_flag()
    v._ranks[0].cpe_launches = 2
    audit.on_faaw(None, 5, 5)
    assert "flag-nonmonotone" in {x.invariant for x in v.violations}


def test_flag_overcount_is_flagged():
    v, audit = _validator_with_flag()
    # one kernel offloaded, two completion bumps
    v._ranks[0].cpe_launches = 1
    audit.on_faaw(None, 0, 1)
    audit.on_faaw(None, 1, 2)
    assert [x.invariant for x in v.violations] == ["flag-overcount"]


def test_flag_undercount_found_at_finalization():
    v, audit = _validator_with_flag()
    v._ranks[0].cpe_launches = 2
    v._ranks[0].clean_cpe_retires = 2
    audit.on_faaw(None, 0, 1)  # only one of the two kernels bumped
    v.finish()
    assert [x.invariant for x in v.violations] == ["flag-undercount"]
    assert "1 time(s)" in v.violations[0].detail


def test_flag_matching_counts_are_clean():
    v, audit = _validator_with_flag()
    v._ranks[0].cpe_launches = 2
    v._ranks[0].clean_cpe_retires = 2
    audit.on_faaw(None, 0, 1)
    audit.on_faaw(None, 1, 2)
    v.finish()
    assert v.ok


# ---------------------------------------------------------------- DW audit
def _watched_dw():
    v = ScheduleValidator()
    dw = DataWarehouse(step=4, rank=0)
    v.watch_dw(dw)
    grid = Grid(extent=(4, 4, 4), layout=(1, 1, 1))
    return v, dw, grid.patches()[0], VarLabel("u")


def test_dw_read_before_put_is_attributed():
    v, dw, patch, u = _watched_dw()
    with pytest.raises(KeyError):
        dw.get(u, patch)
    assert [x.invariant for x in v.violations] == ["dw-read-before-put"]
    assert "'u'@p0" in v.violations[0].detail


def test_dw_double_put_is_attributed():
    v, dw, patch, u = _watched_dw()
    dw.allocate_and_put(u, patch)
    with pytest.raises(KeyError):
        dw.allocate_and_put(u, patch)
    assert [x.invariant for x in v.violations] == ["dw-double-put"]


def test_dw_use_after_scrub_and_double_scrub_are_attributed():
    v, dw, patch, u = _watched_dw()
    dw.allocate_and_put(u, patch)
    assert dw.scrub(u, patch) is True
    with pytest.raises(KeyError):
        dw.get(u, patch)
    with pytest.raises(KeyError):
        dw.scrub(u, patch)
    assert [x.invariant for x in v.violations] == [
        "dw-use-after-scrub",
        "dw-double-scrub",
    ]
    # violations carry the warehouse generation even with no rank mirror
    assert "generation 4" in v.violations[0].detail


def test_clean_dw_traffic_records_nothing():
    v, dw, patch, u = _watched_dw()
    var = dw.allocate_and_put(u, patch)
    assert dw.get(u, patch) is var
    assert dw.scrub(u, patch) is True
    assert v.ok
