"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "Table II" in out and "Table III" in out and "Table IV" in out


def test_table_1(capsys):
    assert main(["table", "1"]) == 0
    assert "FLOP per cell" in capsys.readouterr().out


def test_table_unknown(capsys):
    assert main(["table", "42"]) == 2
    assert "no table" in capsys.readouterr().err


def test_fig_unknown(capsys):
    assert main(["fig", "11"]) == 2
    assert "no figure" in capsys.readouterr().err


def test_run_case(capsys):
    code = main(
        ["run", "--problem", "16x16x512", "--variant", "acc.async",
         "--cgs", "4", "--nsteps", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "time/step" in out and "Gflop/s" in out


def test_run_with_select_policy(capsys):
    code = main(
        ["run", "--problem", "16x16x512", "--variant", "acc.async",
         "--cgs", "4", "--nsteps", "2", "--select-policy", "most_messages"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "most_messages" in out and "time/step" in out


def test_run_rejects_unknown_select_policy():
    with pytest.raises(SystemExit):
        main(["run", "--problem", "16x16x512", "--select-policy", "fastest_first"])


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--nsteps", "0"],
        ["run", "--cgs", "0"],
        ["profile", "--top", "-1"],
        ["profile", "--top", "0"],
        ["trace", "--ranks", "0"],
        ["sweep", "--nsteps", "-2"],
        ["table", "5", "--nsteps", "0"],
        ["verify", "--seeds", "abc"],
        ["verify", "--cgs", "two"],
        ["resilience", "--checkpoint-every", "0"],
    ],
)
def test_meaningless_counts_exit_2(argv, capsys):
    """A count below 1 or a malformed seed is an argparse error, not a traceback."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "expected" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, cause",
    [
        (["resilience", "--extent", "7"], "does not divide"),
        (["resilience", "--cgs", "2", "--fail-rank", "5", "--fail-step", "1",
          "--nsteps", "2", "--extent", "8", "--checkpoint-every", "1"],
         "fail_rank 5 is outside [0, 2)"),
        (["resilience", "--cgs", "2", "--fail-rank", "1", "--fail-step", "50",
          "--nsteps", "2", "--extent", "8"], "fail_at_step 50 is past nsteps 2"),
        (["run", "--problem", "64x64x512", "--cgs", "1"], "needs at least 2 CGs"),
        (["profile", "--problem", "64x64x512", "--cgs", "1"], "needs at least 2 CGs"),
        (["trace", "--problem", "64x64x512", "--cgs", "1"], "needs at least 2 CGs"),
        (["resilience", "--nsteps", "3", "--fail-rank", "-1", "--cgs", "64", "--extent", "8"],
         "64 ranks but only 4 patches"),
        (["verify", "--cgs", "100"], "100 ranks but only 16 patches"),
    ],
    ids=["extent", "fail-rank", "fail-step", "run-cgs", "profile-cgs", "trace-cgs",
         "resilience-ranks-past-patches", "verify-ranks-past-patches"],
)
def test_inputs_argparse_cannot_check_exit_2(argv, cause, capsys):
    """Inputs that only the model can judge are rejected before any
    simulated step, with exit 2 and the cause, not a traceback."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert cause in captured.err
    assert captured.out == ""


def test_run_rejects_unknown_problem():
    with pytest.raises(SystemExit):
        main(["run", "--problem", "9x9x9"])


def test_sweep(capsys):
    assert main(["sweep", "--problem", "16x16x512", "--variant", "acc.async",
                 "--nsteps", "1"]) == 0
    out = capsys.readouterr().out
    assert "Strong scaling" in out
    assert "128" in out


def test_resilience(capsys):
    code = main(
        ["--seed", "7", "resilience", "--nsteps", "6", "--extent", "12",
         "--cgs", "2", "--fail-rank", "1", "--fail-step", "4",
         "--checkpoint-every", "3"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Resilience report" in out
    assert "recoveries from checkpoint" in out
    assert "bit-identical" in out


def test_resilience_without_rank_failure(capsys):
    code = main(
        ["resilience", "--nsteps", "4", "--extent", "12", "--cgs", "2",
         "--fail-rank", "-1", "--stuck", "0.2", "--drop", "0.2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "bit-identical" in out


def test_missing_command():
    with pytest.raises(SystemExit):
        main([])


def test_report_to_file(tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert main(["report", "--nsteps", "1", "--output", str(out)]) == 0
    text = out.read_text()
    for title in ("Table I", "Table V", "Fig. 9", "Fig. 10"):
        assert title in text
    err = capsys.readouterr().err
    assert "generating" in err


def test_profile(capsys):
    code = main(
        ["profile", "--problem", "16x16x512", "--variant", "acc.async",
         "--cgs", "2", "--nsteps", "2", "--top", "3"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Per-rank time accounting" in out
    assert "Run ledger" in out
    assert "critical path" in out.lower()
    assert "Top 3 activities" in out


def test_trace_writes_perfetto_json(tmp_path, capsys):
    import json

    target = tmp_path / "trace.json"
    code = main(
        ["trace", "--problem", "16x16x512", "--cgs", "2", "--nsteps", "2",
         "--output", str(target)]
    )
    assert code == 0
    events = json.loads(target.read_text())["traceEvents"]
    assert any(e.get("name") == "process_name" for e in events)
    out = capsys.readouterr().out
    assert "ui.perfetto.dev" in out


def test_run_rejects_unknown_variant():
    with pytest.raises(SystemExit):
        main(["run", "--problem", "16x16x512", "--variant", "gpu.turbo"])


def test_run_rejects_blocked_telemetry_out(tmp_path, capsys):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("occupied\n")
    code = main(
        ["run", "--problem", "16x16x512", "--cgs", "2", "--nsteps", "1",
         "--telemetry-out", str(blocker / "telemetry")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "not-a-dir" in err and "not a directory" in err


def test_profile_rejects_blocked_telemetry_out(tmp_path, capsys):
    blocker = tmp_path / "file.txt"
    blocker.write_text("occupied\n")
    code = main(
        ["profile", "--problem", "16x16x512", "--cgs", "2", "--nsteps", "1",
         "--telemetry-out", str(blocker)]
    )
    assert code == 2
    assert "file.txt" in capsys.readouterr().err


def test_verify_rejects_unknown_mode():
    with pytest.raises(SystemExit):
        main(["verify", "--modes", "warp_drive"])


def test_verify_rejects_unknown_policy():
    with pytest.raises(SystemExit):
        main(["verify", "--policies", "fastest_first"])


def test_verify_rejects_malformed_extent(capsys):
    assert main(["verify", "--extent", "8x8"]) == 2
    assert "8x8" in capsys.readouterr().err
    # the default 4x4x1 patch layout cannot split 6 cells in x or y
    assert main(["verify", "--extent", "6x6x6"]) == 2
    assert "4x4x1" in capsys.readouterr().err


def test_verify_rejects_blocked_out_dir(tmp_path, capsys):
    blocker = tmp_path / "report"
    blocker.write_text("occupied\n")
    assert main(["verify", "--out", str(blocker)]) == 2
    assert "report" in capsys.readouterr().err


def test_run_telemetry_out(tmp_path, capsys):
    outdir = tmp_path / "telemetry"
    code = main(
        ["run", "--problem", "16x16x512", "--variant", "acc.async",
         "--cgs", "2", "--nsteps", "2", "--telemetry-out", str(outdir)]
    )
    assert code == 0
    for name in ("ledger.jsonl", "metrics.json", "trace.json"):
        assert (outdir / name).exists(), name
    out = capsys.readouterr().out
    assert "GFLOP/step (counted)" in out and "exp flop share" in out
