"""Command-line interface: regenerate the paper's evaluation from a shell.

Examples::

    python -m repro info
    python -m repro table 1
    python -m repro table 5 --nsteps 5
    python -m repro fig 9
    python -m repro run --problem 32x32x512 --variant acc.async --cgs 8
    python -m repro sweep --problem 16x16x512 --variant acc_simd.async
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro.core.schedulers.selection import POLICIES
from repro.harness import metrics
from repro.harness.problems import PROBLEMS, problem_by_name
from repro.harness.reportfmt import pct, render_table, seconds
from repro.harness.runner import run_experiment, run_instrumented
from repro.harness.variants import VARIANTS, variant_by_name


def _positive_int(text: str) -> int:
    """argparse type of a count: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _seed(text: str) -> int | None:
    """argparse type of a fault seed: ``none`` (the fault-free case) or an integer."""
    if text.lower() == "none":
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'none' or an integer, got {text!r}") from None


def _case(args):
    """The problem and variant a case command names, with its selection policy."""
    variant = dataclasses.replace(variant_by_name(args.variant), select_policy=args.select_policy)
    return problem_by_name(args.problem), variant


def _check_outdir(path_str: str | None) -> str | None:
    """Reject an output directory blocked by an existing file.

    Returns an error message (for stderr) or None when the path is
    usable; catching this up front turns a mid-run traceback into a
    clear exit-code-2 diagnosis before any simulation time is spent.
    """
    import pathlib

    if not path_str:
        return None
    path = pathlib.Path(path_str)
    for candidate in [path, *path.parents]:
        if candidate.exists():
            if not candidate.is_dir():
                return (
                    f"cannot write telemetry to {path_str!r}: "
                    f"{candidate} exists and is not a directory"
                )
            break
    return None


def _write_telemetry(outdir: str, bundle) -> None:
    """Write a run's telemetry artifacts (ledger, metrics, trace) to a dir."""
    import json
    import pathlib

    out = pathlib.Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    bundle.ledger.write(out / "ledger.jsonl")
    (out / "metrics.json").write_text(
        json.dumps(bundle.ledger.metrics, indent=2, sort_keys=True) + "\n"
    )
    (out / "trace.json").write_text(
        json.dumps({"traceEvents": bundle.result.trace.to_chrome_trace()}) + "\n"
    )
    print(
        f"telemetry written to {out}/ (ledger.jsonl, metrics.json, trace.json)",
        file=sys.stderr,
    )


def _cmd_info(_args) -> int:
    from repro.harness.tables import table2, table3, table4

    print(table2())
    print()
    print(table3())
    print()
    print(table4())
    return 0


def _cmd_table(args) -> int:
    from repro.harness import tables

    fns = {
        "1": tables.table1,
        "2": tables.table2,
        "3": tables.table3,
        "4": tables.table4,
        "5": lambda: tables.table5(nsteps=args.nsteps),
        "6": lambda: tables.table6(nsteps=args.nsteps),
        "7": lambda: tables.table7(nsteps=args.nsteps),
    }
    fn = fns.get(args.number)
    if fn is None:
        print(f"no table {args.number!r}; choose from {sorted(fns)}", file=sys.stderr)
        return 2
    print(fn())
    return 0


def _cmd_fig(args) -> int:
    from repro.harness import figures

    fns = {
        "5": lambda: figures.fig5(nsteps=args.nsteps),
        "678": lambda: figures.fig678(nsteps=args.nsteps),
        "6": lambda: figures.fig678(nsteps=args.nsteps),
        "7": lambda: figures.fig678(nsteps=args.nsteps),
        "8": lambda: figures.fig678(nsteps=args.nsteps),
        "9": lambda: figures.fig9(nsteps=args.nsteps),
        "10": lambda: figures.fig10(nsteps=args.nsteps),
    }
    fn = fns.get(args.number)
    if fn is None:
        print(f"no figure {args.number!r}; choose from 5, 6-8, 9, 10", file=sys.stderr)
        return 2
    print(fn())
    return 0


def _cmd_run(args) -> int:
    from repro.burgers.flops import table1_row

    err = _check_outdir(getattr(args, "telemetry_out", None))
    if err is not None:
        print(err, file=sys.stderr)
        return 2
    problem, variant = _case(args)
    bundle = None
    if getattr(args, "telemetry_out", None):
        bundle = run_instrumented(problem, variant, args.cgs, nsteps=args.nsteps)
        result = bundle.experiment
    else:
        result = run_experiment(problem, variant, args.cgs, nsteps=args.nsteps)
    # Counted-flop accounting in the paper's Table I convention (flops
    # divided over the grid plus one global ghost layer).
    flop_row = table1_row(problem.grid(), fast_exp=variant.cost_model().fast_exp)
    rows = [
        ("problem", result.problem),
        ("variant", result.variant),
        ("select policy", variant.select_policy),
        ("CGs", result.num_cgs),
        ("time/step", seconds(result.time_per_step)),
        ("GFLOP/step (counted)", f"{result.flops_per_step / 1e9:.3f}"),
        ("flops/cell (Table I)", f"{flop_row['flops_per_cell']:.0f}"),
        ("exp flop share", pct(flop_row["exp_share"], 1)),
        ("Gflop/s", f"{result.gflops:.2f}"),
        ("FP efficiency", pct(result.fp_efficiency, 2)),
        ("messages/step", f"{result.messages_per_step:.0f}"),
        ("MB/step on the wire", f"{result.bytes_per_step / 1e6:.1f}"),
    ]
    print(render_table("Experiment result (simulated Sunway time)", ["Metric", "Value"], rows))
    if bundle is not None:
        _write_telemetry(args.telemetry_out, bundle)
    return 0


def _cmd_sweep(args) -> int:
    err = _check_outdir(getattr(args, "telemetry_out", None))
    if err is not None:
        print(err, file=sys.stderr)
        return 2
    problem, variant = _case(args)
    base = None
    rows = []
    for cgs in problem.cg_counts():
        if getattr(args, "telemetry_out", None):
            bundle = run_instrumented(problem, variant, cgs, nsteps=args.nsteps)
            r = bundle.experiment
            _write_telemetry(f"{args.telemetry_out}/cg{cgs}", bundle)
        else:
            r = run_experiment(problem, variant, cgs, nsteps=args.nsteps)
        base = base or r
        rows.append(
            (
                cgs,
                seconds(r.time_per_step),
                f"{metrics.speedup(base, r):.2f}x",
                pct(metrics.scaling_efficiency(base, r)),
                f"{r.gflops:.1f}",
                pct(r.fp_efficiency, 2),
            )
        )
    print(
        render_table(
            f"Strong scaling: {problem.name}, {variant.name}",
            ["CGs", "Time/step", "Speedup", "Efficiency", "Gflop/s", "FP eff"],
            rows,
        )
    )
    return 0


def _cmd_profile(args) -> int:
    """Instrumented run: time accounting, ledger, critical path, top tasks."""
    from repro.telemetry import analyze
    from repro.telemetry.analyzer import render_top_tasks

    err = _check_outdir(getattr(args, "telemetry_out", None))
    if err is not None:
        print(err, file=sys.stderr)
        return 2
    problem, variant = _case(args)
    bundle = run_instrumented(problem, variant, args.cgs, nsteps=args.nsteps)
    r = bundle.experiment
    rows = [
        ("problem", r.problem),
        ("variant", r.variant),
        ("select policy", variant.select_policy),
        ("CGs", r.num_cgs),
        ("time/step", seconds(r.time_per_step)),
        ("Gflop/s", f"{r.gflops:.2f}"),
        ("mean overlap fraction", pct(bundle.ledger.mean_overlap_fraction)),
        ("total comm wait", seconds(bundle.ledger.total_comm_wait)),
    ]
    print(render_table("Profiled run (simulated Sunway time)", ["Metric", "Value"], rows))
    analysis = analyze(bundle.result, ledger=bundle.ledger)
    print()
    print(analysis.render_time_accounting())
    print()
    print(analysis.render_ledger())
    print()
    print(analysis.render_critical_path())
    print()
    print(render_top_tasks(bundle.result.trace, n=args.top))
    if args.telemetry_out:
        _write_telemetry(args.telemetry_out, bundle)
    return 0


def _cmd_trace(args) -> int:
    """Instrumented run: Perfetto/Chrome trace JSON plus an ASCII Gantt."""
    import json
    import pathlib

    problem, variant = _case(args)
    bundle = run_instrumented(problem, variant, args.cgs, nsteps=args.nsteps)
    out = pathlib.Path(args.output)
    out.write_text(
        json.dumps({"traceEvents": bundle.result.trace.to_chrome_trace()}) + "\n"
    )
    n_events = len(bundle.result.trace.spans)
    print(
        f"wrote {out} ({n_events} spans); load it in https://ui.perfetto.dev "
        "or chrome://tracing"
    )
    for rank in range(min(bundle.result.num_ranks, args.ranks)):
        print()
        print(bundle.result.trace.timeline(rank))
    return 0


def _cmd_resilience(args) -> int:
    """Fault-injection demo: inject, recover, verify bit-exactness."""
    import numpy as np

    from repro.burgers.component import BurgersProblem
    from repro.core.controller import SimulationController
    from repro.core.grid import Grid
    from repro.faults import FaultConfig, ResiliencePolicy
    from repro.faults.recovery import ResilientRunner

    e = args.extent
    grid = Grid(extent=(e, e, e), layout=(2, 2, 1))
    dt = BurgersProblem(grid).stable_dt()

    if args.fail_rank is not None and args.fail_rank < 0:
        args.fail_rank = args.fail_step = None
    config = FaultConfig(
        seed=args.seed,
        kernel_slowdown_prob=args.slowdown,
        kernel_stuck_prob=args.stuck,
        dma_error_prob=args.dma,
        msg_drop_prob=args.drop,
        msg_dup_prob=args.dup,
        msg_delay_prob=args.delay,
        fail_rank=args.fail_rank,
        fail_at_step=args.fail_step,
    )
    policy = ResiliencePolicy(checkpoint_every=args.checkpoint_every)
    runner = ResilientRunner(
        BurgersProblem,
        grid,
        nsteps=args.nsteps,
        dt=dt,
        num_ranks=args.cgs,
        config=config,
        policy=policy,
    )
    report = runner.run()

    # fault-free reference: same problem, no injector — the recovered
    # fields must match it to the last bit
    problem = BurgersProblem(grid)
    reference = SimulationController(
        grid, problem.tasks(), problem.init_tasks(), num_ranks=args.cgs, real=True
    ).run(nsteps=args.nsteps, dt=dt)
    report.fault_free_time = reference.total_time

    def fields(dws):
        return {
            v.patch.patch_id: v.interior
            for dw in dws
            for v in dw.grid_variables()
        }

    ref = fields(reference.final_dws)
    got = fields(runner.final_dws)
    identical = set(ref) == set(got) and all(
        np.array_equal(got[p], ref[p]) for p in ref
    )

    print(report.render())
    print(
        "recovered fields vs fault-free reference: "
        + ("bit-identical" if identical else "MISMATCH")
    )
    return 0 if identical else 1


def _cmd_verify(args) -> int:
    """Differential verification: invariants + bit-identical physics."""
    from repro.verify import (
        DEFAULT_LAYOUT,
        DEFAULT_MODES,
        DEFAULT_SEEDS,
        ReproBundle,
        run_differential,
    )

    err = _check_outdir(args.out)
    if err is not None:
        print(err, file=sys.stderr)
        return 2

    try:
        extent = tuple(int(e) for e in args.extent.lower().split("x"))
        if len(extent) != 3 or any(e < 1 or e % n for e, n in zip(extent, DEFAULT_LAYOUT)):
            raise ValueError
    except ValueError:
        print(
            f"bad --extent {args.extent!r}: expected NXxNYxNZ divisible by the "
            f"{'x'.join(map(str, DEFAULT_LAYOUT))} patch layout, e.g. 8x8x8",
            file=sys.stderr,
        )
        return 2

    report = run_differential(
        modes=tuple(args.modes or DEFAULT_MODES),
        policies=tuple(args.policies or POLICIES),
        seeds=tuple(args.seeds or DEFAULT_SEEDS),
        nsteps=args.nsteps,
        extent=extent,  # type: ignore[arg-type]
        num_ranks=args.cgs,
        out=args.out,
        log=lambda msg: print(msg, file=sys.stderr),
    )
    rows = [
        (c["mode"], c["policy"], str(c["seed"]),
         str(c["violations"]), "yes" if c["identical_physics"] else "NO",
         "pass" if c["ok"] else "FAIL")
        for c in report["cases"]
    ]
    print(
        render_table(
            f"Differential verification ({report['num_cases']} cases)",
            ["Mode", "Policy", "Seed", "Violations", "Identical", "Verdict"],
            rows,
        )
    )
    for gate in report["nonperturbation"]:
        verdict = "bit-identical" if gate["identical"] else "PERTURBED"
        print(f"validator non-perturbation [{gate['mode']}]: {verdict}")
    if not report["passed"]:
        for b in report["bundles"]:
            print()
            print(ReproBundle(**{k: v for k, v in b.items() if k != "command"}).render())
        if args.out:
            print(f"\nreport + repro bundles written to {args.out}/", file=sys.stderr)
        return 1
    print("all cases passed: zero violations, bitwise-identical physics")
    if args.out:
        print(f"report written to {args.out}/report.json", file=sys.stderr)
    return 0


def _cmd_report(args) -> int:
    from repro.harness.report import full_report

    text = full_report(nsteps=args.nsteps, progress=lambda s: print(s, file=sys.stderr))
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"report written to {args.output}", file=sys.stderr)
    else:
        print(text)
    return 0


def _add_case_options(p, problem: str, variant: str, cgs: bool = True) -> None:
    """The options naming one experimental case, shared by the case commands."""
    p.add_argument("--problem", default=problem, choices=[pr.name for pr in PROBLEMS])
    p.add_argument("--variant", default=variant, choices=sorted(VARIANTS))
    if cgs:
        p.add_argument("--cgs", type=_positive_int, default=8)
    p.add_argument("--nsteps", type=_positive_int, default=10)
    p.add_argument(
        "--select-policy",
        default="fifo",
        choices=sorted(POLICIES),
        help="ready-queue ordering for offloadable tasks",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of the Uintah-on-Sunway-TaihuLight evaluation",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for fault injection; the DES itself is deterministic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="machine, problems and variants").set_defaults(
        fn=_cmd_info
    )

    p = sub.add_parser("table", help="regenerate a paper table (1-7)")
    p.add_argument("number", help="table number, e.g. 5")
    p.add_argument("--nsteps", type=_positive_int, default=10, help="timesteps per case")
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("fig", help="regenerate a paper figure (5, 6-8, 9, 10)")
    p.add_argument("number", help="figure number, e.g. 9")
    p.add_argument("--nsteps", type=_positive_int, default=10)
    p.set_defaults(fn=_cmd_fig)

    p = sub.add_parser("run", help="run one experimental case")
    _add_case_options(p, "32x32x512", "acc.async")
    p.add_argument(
        "--telemetry-out",
        default=None,
        metavar="DIR",
        help="also run instrumented and write ledger.jsonl/metrics.json/trace.json",
    )
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser(
        "profile",
        help="instrumented run: per-rank time accounting and critical path",
    )
    _add_case_options(p, "16x16x512", "acc.async")
    p.add_argument("--top", type=_positive_int, default=10, help="activities in the top-N table")
    p.add_argument(
        "--telemetry-out",
        default=None,
        metavar="DIR",
        help="write ledger.jsonl/metrics.json/trace.json to DIR",
    )
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser(
        "trace",
        help="instrumented run: Perfetto/Chrome trace JSON + ASCII Gantt",
    )
    _add_case_options(p, "16x16x512", "acc.async")
    p.add_argument("--output", default="trace.json", help="trace JSON path")
    p.add_argument(
        "--ranks", type=_positive_int, default=2, help="ranks to show as ASCII Gantt"
    )
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser(
        "resilience",
        help="inject faults, recover, and verify bit-exact physics",
    )
    p.add_argument("--nsteps", type=_positive_int, default=12)
    p.add_argument("--cgs", type=_positive_int, default=4)
    p.add_argument("--extent", type=int, default=16, help="cubic grid edge length")
    p.add_argument("--slowdown", type=float, default=0.1, help="kernel slowdown probability")
    p.add_argument("--stuck", type=float, default=0.05, help="stuck-kernel probability")
    p.add_argument("--dma", type=float, default=0.05, help="DMA-error probability")
    p.add_argument("--drop", type=float, default=0.05, help="message drop probability")
    p.add_argument("--dup", type=float, default=0.03, help="message duplication probability")
    p.add_argument("--delay", type=float, default=0.05, help="message delay probability")
    p.add_argument("--fail-rank", type=int, default=2, help="rank to kill (negative: none)")
    p.add_argument("--fail-step", type=int, default=8, help="timestep the rank dies at")
    p.add_argument("--checkpoint-every", type=int, default=5)
    p.set_defaults(fn=_cmd_resilience)

    p = sub.add_parser(
        "verify",
        help="differential verification: schedule invariants + bit-identical physics",
    )
    p.add_argument(
        "--modes",
        nargs="+",
        choices=["mpe_only", "sync", "async"],
        default=None,
        help="scheduler modes to cover (default: all)",
    )
    p.add_argument(
        "--policies",
        nargs="+",
        choices=sorted(POLICIES),
        default=None,
        help="selection policies to cover (default: all)",
    )
    p.add_argument(
        "--seeds",
        nargs="+",
        type=_seed,
        default=None,
        metavar="SEED",
        help="fault seeds to cover ('none' = fault-free case)",
    )
    p.add_argument("--nsteps", type=_positive_int, default=3)
    p.add_argument("--extent", default="8x8x8", help="grid extent, e.g. 8x8x8")
    p.add_argument(
        "--cgs", type=_positive_int, default=2, help="simulated core-groups (ranks)"
    )
    p.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="write report.json and any repro bundles under DIR/",
    )
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("report", help="regenerate the complete evaluation")
    p.add_argument("--nsteps", type=_positive_int, default=10)
    p.add_argument("--output", default=None, help="write to a file instead of stdout")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("sweep", help="strong-scaling sweep of one problem/variant")
    _add_case_options(p, "16x16x512", "acc_simd.async", cgs=False)
    p.add_argument(
        "--telemetry-out",
        default=None,
        metavar="DIR",
        help="run instrumented and write per-CG-count artifacts under DIR/cgN/",
    )
    p.set_defaults(fn=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # output piped into e.g. `head`; exit quietly like other CLIs
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
