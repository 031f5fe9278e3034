"""Smoke tests: every shipped example runs to completion.

Examples double as executable documentation; these tests keep them from
rotting.  The slower studies are exercised with a stricter timeout and
marked so `-m "not slow"` can skip them.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name: str, timeout: int = 240) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_example_files_exist():
    """Every ``examples/<name>.py`` has a ``test_<name>`` here, and every
    such test names an example that exists.  Examples count as users in
    the orphan guards, so an untested example could keep dead code alive."""
    examples = {p.stem for p in EXAMPLES.glob("*.py")}
    tested = {n.removeprefix("test_") for n in globals() if n.startswith("test_")}
    assert examples == tested - {"example_files_exist"}


def test_quickstart():
    out = run_example("quickstart.py")
    assert "error vs exact" in out
    assert "timeline" in out


def test_heat_equation():
    out = run_example("heat_equation.py")
    assert "OK: heat spread" in out


def test_tile_explorer():
    out = run_example("tile_explorer.py")
    assert "16x16x8" in out and "41.3 KB" in out


def test_checkpoint_restart():
    out = run_example("checkpoint_restart.py")
    assert "bit-identical" in out


def test_fault_tolerance():
    out = run_example("fault_tolerance.py")
    assert "Resilience report" in out
    assert "recovered on 3 of 4 CGs" in out
    assert "bit-identical" in out


@pytest.mark.slow
def test_scheduler_comparison():
    out = run_example("scheduler_comparison.py")
    assert "async improvement over sync" in out


@pytest.mark.slow
def test_strong_scaling_mini():
    out = run_example("strong_scaling_mini.py")
    assert "Strong scaling" in out


@pytest.mark.slow
def test_unified_vs_sunway():
    out = run_example("unified_vs_sunway.py")
    assert "Unified, 1 thread" in out


def test_performance_analysis(tmp_path):
    import json

    out = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / "performance_analysis.py"), str(out)],
        capture_output=True, text=True, timeout=240,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "activity breakdown" in proc.stdout
    assert "hidden under kernels" in proc.stdout
    events = json.loads(out.read_text())
    assert any(e.get("ph") == "X" for e in events)
