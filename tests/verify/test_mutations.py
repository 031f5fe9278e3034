"""Mutation self-tests: planted schedule bugs must be flagged.

The live lifecycle raises :class:`IllegalTransition` before notifying
subscribers, so the validator's checks are exercised by replaying a
recorded clean event stream with one deliberate corruption each —
exactly the bugs the invariant catalog promises to catch.  Every test
asserts the validator flags its planted bug (and the planted bug only,
where the corruption is surgical enough to guarantee that).
"""

import pytest

from repro.core.schedulers.lifecycle import TaskState
from repro.verify import ReproBundle, ScheduleValidator
from tests.verify.replay import replay


def _replayed(run, events, **validator_kwargs):
    v = ScheduleValidator(**validator_kwargs)
    return replay(events, 0, run.graph, run.costs, validator=v)


def _transitions(events, state):
    return [
        (i, ev)
        for i, ev in enumerate(events)
        if ev.kind == "transition" and ev.state is state
    ]


def _has_later_running(events, idx, dt_id):
    return any(
        ev.kind == "transition"
        and ev.state is TaskState.RUNNING
        and ev.dt.dt_id == dt_id
        for ev in events[idx + 1 :]
    )


def test_clean_replay_is_clean(recorded_run):
    """Baseline: the unmutated stream replays with zero violations."""
    v = _replayed(recorded_run, recorded_run.copy_events())
    assert v.ok, v.report()


def test_dropped_ghost_receive_flags_run_before_recv(recorded_run):
    events = recorded_run.copy_events()
    idx = next(
        i
        for i, ev in enumerate(events)
        if ev.kind == "msg-recv"
        and ev.dt is not None
        and _has_later_running(events, i, ev.dt.dt_id)
    )
    del events[idx]
    v = _replayed(recorded_run, events)
    assert not v.ok
    assert "run-before-recv" in v.report()["per_invariant"]


def test_dropped_local_copy_flags_run_before_copy(recorded_run):
    events = recorded_run.copy_events()
    idx = next(
        i
        for i, ev in enumerate(events)
        if ev.kind == "local-copy"
        and ev.dt is not None
        and _has_later_running(events, i, ev.dt.dt_id)
    )
    del events[idx]
    v = _replayed(recorded_run, events)
    assert not v.ok
    assert "run-before-copy" in v.report()["per_invariant"]


def test_dropped_producer_retirement_flags_run_before_dep(recorded_run):
    events = recorded_run.copy_events()
    deps_of = {
        did: recorded_run.graph.internal_deps[did]
        for did in recorded_run.graph.internal_deps
    }
    # a consumer with at least one same-rank producer, and that
    # producer's DONE before the consumer's RUNNING: drop the DONE
    for i, ev in _transitions(events, TaskState.RUNNING):
        deps = deps_of.get(ev.dt.dt_id) or ()
        for j, done in _transitions(events[:i], TaskState.DONE):
            if done.dt.dt_id in deps:
                del events[j]
                v = _replayed(recorded_run, events)
                assert not v.ok
                assert "run-before-dep" in v.report()["per_invariant"]
                return
    pytest.fail("stream contains no producer-before-consumer pair")


def test_skipped_dispatch_flags_illegal_transition(recorded_run):
    events = recorded_run.copy_events()
    idx, _ = _transitions(events, TaskState.DISPATCHED)[0]
    del events[idx]
    v = _replayed(recorded_run, events)
    assert not v.ok
    report = v.report()
    assert report["per_invariant"] == {"illegal-transition": 1}
    assert "READY -> RUNNING" in report["violations"][0]["detail"]


def test_duplicated_completion_flags_illegal_transition(recorded_run):
    events = recorded_run.copy_events()
    idx, done = _transitions(events, TaskState.DONE)[0]
    events.insert(idx + 1, done)
    v = _replayed(recorded_run, events)
    assert not v.ok
    report = v.report()
    assert report["per_invariant"] == {"illegal-transition": 1}
    assert "DONE -> DONE" in report["violations"][0]["detail"]


def test_early_scrub_flags_scrub_early(recorded_run):
    events = recorded_run.copy_events()
    scrub_idx = next(i for i, ev in enumerate(events) if ev.kind == "scrubbed")
    step_idx = max(
        i for i, ev in enumerate(events[:scrub_idx]) if ev.kind == "step-begin"
    )
    # replay the scrub right after its step begins, before any reader ran
    events.insert(step_idx + 1, events.pop(scrub_idx))
    v = _replayed(recorded_run, events)
    assert not v.ok
    assert "scrub-early" in v.report()["per_invariant"]


def test_shrunk_ldm_budget_flags_every_offload(recorded_run):
    events = recorded_run.copy_events()
    offloads = [
        ev
        for _, ev in _transitions(events, TaskState.RUNNING)
        if ev.info.get("backend") == "cpe"
    ]
    assert offloads, "recorded run offloaded nothing"
    v = _replayed(recorded_run, events, ldm_bytes=128)
    assert not v.ok
    report = v.report()
    assert report["per_invariant"] == {"ldm-overflow": len(offloads)}


def test_first_violation_yields_a_working_repro_bundle(recorded_run):
    """A flagged mutation carries everything a repro bundle needs."""
    events = recorded_run.copy_events()
    idx, _ = _transitions(events, TaskState.DISPATCHED)[0]
    del events[idx]
    v = _replayed(recorded_run, events)
    assert v.violations
    violation = v.violations[0]
    bundle = ReproBundle(
        failure=violation.invariant,
        mode="async",
        select_policy="fifo",
        fault_seed=None,
        problem={"extent": [8, 8, 8], "layout": [2, 2, 1], "num_ranks": 2, "nsteps": 2},
        violation=violation.to_dict(),
        window=list(v.first_window or ()),
    )
    assert bundle.failure == "illegal-transition"
    assert bundle.window, "first_window snapshot is empty"
    assert "--modes async" in bundle.command
    rendered = bundle.render()
    assert "illegal-transition" in rendered
