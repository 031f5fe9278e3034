"""Self-tests of the benchmark: determinism, seeding, metric catalog.

Run from the repository root (about three minutes)::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads as wl  # noqa: E402


def one_batch(name: str, seed: int, tmp_path: pathlib.Path):
    """The shortest traced run of ``name`` (warm-up, one untraced and one
    traced batch): what the seed chose, the deterministic figures by cell,
    the quality figure and the per-layer counts."""
    workload = wl.make(name, seed, tmp_path)
    plain, with_trace = run.measure(workload, seconds=1e-9, traced=True)
    (batch,), ((traced, _),) = plain, with_trace
    assert all(o.ok for o in batch + traced), [o.error for o in batch + traced if not o.ok]
    figures = {o.key: (o.sim_step_s, o.facts) for o in batch}
    counts = {k: v for k, v in run.per_layer(plain, with_trace).items() if isinstance(v, int)}
    return workload.describe(), figures, workload.quality(batch), counts


@pytest.mark.parametrize("name", ["sweep-model", "real-burgers", "faulted-restart"])
def test_same_seed_repeats_and_other_seed_changes_inputs(name, tmp_path):
    first = one_batch(name, 11, tmp_path)
    assert one_batch(name, 11, tmp_path) == first

    chosen, figures, _, counts = first
    other_chosen, other_figures, _, other_counts = one_batch(name, 12, tmp_path)
    assert other_chosen != chosen
    if name == "sweep-model":
        # the seed only permutes the cells: every figure and count is unchanged
        assert (other_figures, other_counts) == (figures, counts)


def test_baseline_cell_matches_scheduler_overhead_baseline():
    baseline = json.loads(wl.BASELINE_PATH.read_text())["simulated_seconds"]
    assert wl.load_reference()["sweep-model"][wl.BASELINE_CELL]["total_time"] == baseline


def test_benchmark_json_lists_what_run_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    layers = json.loads(run.LAYERS_PATH.read_text())
    assert bench["per_layer"] == [
        {"name": k, "unit": v["unit"], "better": v["better"]} for k, v in layers.items()
    ]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    times = [float(i) for i in range(40)]
    assert run.tail(times) == (29.0, 75.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-model", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
