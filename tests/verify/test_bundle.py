"""Repro-bundle serialization and rendering tests."""

import json

from repro.verify import ReproBundle


def _bundle(**overrides):
    kwargs = dict(
        failure="run-before-recv",
        mode="async",
        select_policy="max_dependents",
        fault_seed=23,
        problem={"extent": [8, 8, 8], "layout": [2, 2, 1], "num_ranks": 2, "nsteps": 1},
        violation={
            "invariant": "run-before-recv",
            "family": "lifecycle",
            "rank": 0,
            "step": 0,
            "task": "advect",
            "t": 1.5,
            "detail": "advect started with 0/2 ghost message(s) unpacked",
        },
        window=[
            {"rank": 0, "t": 1.0, "kind": "step-begin", "step": 0},
            {"rank": 0, "t": 1.5, "kind": "RUNNING", "task": "advect"},
        ],
        detail="1 violation(s)",
    )
    kwargs.update(overrides)
    return ReproBundle(**kwargs)


def test_command_reconstructs_the_exact_case():
    cmd = _bundle().command
    assert cmd.startswith("repro verify")
    for flag in (
        "--modes async",
        "--policies max_dependents",
        "--seeds 23",
        "--nsteps 1",
        "--extent 8x8x8",
        "--cgs 2",
    ):
        assert flag in cmd


def test_fault_free_case_commands_seeds_none():
    assert "--seeds none" in _bundle(fault_seed=None).command


def test_write_read_round_trip(tmp_path):
    bundle = _bundle()
    path = bundle.write(tmp_path / "minimized" / "bundle.json")
    data = json.loads(path.read_text())
    assert data == bundle.to_dict()
    assert data["command"] == bundle.command


def test_render_is_a_readable_failure_card():
    text = _bundle().render()
    assert "run-before-recv" in text
    assert "repro verify" in text
    assert "advect" in text
    # the event window is shown
    assert "step-begin" in text
