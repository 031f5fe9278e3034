"""Differential-harness tests: clean matrices pass, sabotage is caught."""

import json

import numpy as np
import pytest

from repro.verify import (
    ScheduleValidator,
    fault_config_for,
    fields_identical,
    run_case,
    run_differential,
)


def test_fault_config_is_seed_deterministic():
    a, b = fault_config_for(23), fault_config_for(23)
    assert a == b
    assert fault_config_for(7) != a


def test_fields_identical_discriminates():
    a = {"u@p0": np.arange(4.0)}
    assert fields_identical(a, {"u@p0": np.arange(4.0)})
    assert not fields_identical(a, {"u@p0": np.arange(4.0) + 1e-16})
    assert not fields_identical(a, {"u@p1": np.arange(4.0)})


def test_single_case_runs_clean_with_faults():
    case = run_case(
        "async", "fifo", seed=7, nsteps=2,
        extent=(8, 8, 8), layout=(2, 2, 1), num_ranks=2,
    )
    assert case.ok
    assert case.report["num_violations"] == 0
    assert case.fields and case.window == []


def test_small_matrix_passes_and_writes_report(tmp_path):
    report = run_differential(
        modes=("mpe_only", "async"),
        policies=("fifo",),
        seeds=(None, 7),
        nsteps=2,
        check_perturbation=False,
        out=tmp_path,
    )
    assert report["passed"] is True
    assert report["num_cases"] == 4
    assert all(c["ok"] for c in report["cases"])
    assert report["bundles"] == []
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert on_disk["passed"] is True


def test_more_ranks_than_patches_is_rejected():
    with pytest.raises(ValueError, match="17 ranks but only 16 patches"):
        run_differential(num_ranks=17)


def test_sabotaged_case_yields_minimized_bundle(tmp_path):
    # shrink the validated budget so every offloaded kernel "overflows"
    def sabotage(ctl):
        if ctl.validator is not None:
            ctl.validator.ldm_bytes = 128

    report = run_differential(
        modes=("async",),
        policies=("fifo",),
        seeds=(None,),
        nsteps=2,
        check_perturbation=False,
        case_hook=sabotage,
        out=tmp_path,
    )
    assert report["passed"] is False
    assert report["cases"][0]["violations"] > 0
    (bundle,) = report["bundles"]
    assert bundle["failure"] == "ldm-overflow"
    # minimized to a single step and reproducible from the command line
    assert bundle["problem"]["nsteps"] == 1
    assert "repro verify" in bundle["command"]
    assert "--modes async" in bundle["command"]
    assert bundle["violation"]["invariant"] == "ldm-overflow"
    files = sorted(p.name for p in tmp_path.iterdir())
    assert "bundle-00-ldm-overflow.json" in files


def test_validator_strict_flag_defaults_off():
    v = ScheduleValidator()
    assert v.strict is False and v.ok
