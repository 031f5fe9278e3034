"""Benchmark entry point: one workload, one seed, one process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-model --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20   # each in its own process

The load is a closed loop from one process with no worker threads: one
client issues the workload's cells back to back.  After one untimed
warm-up cell, whole batches run until ``--seconds`` have passed (at least
one batch).  Every cell is checked; a cell that raises or fails its check
counts in ``failed``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
an untraced and a traced batch and reports the per-layer metrics from the
traced ones, each layer's self time, and the tracing overhead (traced
minus untraced ``run_s``).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines above it are a readable table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-model", "real-burgers", "faulted-restart")
LAYERS_PATH = HERE / "layers.json"
#: Batches an untraced run makes at least, so that each cell's best and
#: median over the batches drop a single disturbed sample.
MIN_BATCHES = 3

#: End-to-end metrics: name -> unit.  ``quality_loss`` is the workload's
#: own deterministic quality figure (see :data:`QUALITY`).
END_TO_END = {
    "cells_per_s": "1/s",
    "run_s": "s",
    "setup_s": "s",
    "cell_s.p50": "s",
    "cell_s.tail": "s",
    "peak_rss_mb": "MB",
    "sim_step_s": "sim_s",
    "quality_loss": "1",
}
#: Per workload, the named quality metric ``quality_loss`` carries, its
#: unit, and the factor from that unit to ``quality_loss``.
QUALITY = {
    "sweep-model": ("table5_err_pp", "pp", 0.01),
    "real-burgers": ("l2_error", "1", 1.0),
    "faulted-restart": ("recovery_overhead", "ratio", 1.0),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


# -- measuring ----------------------------------------------------------------
def measure(workload, seconds: float, traced: bool):
    """Warm up, then run batches for ``seconds``; returns the untraced
    batches and the ``(batch, tracer)`` pairs of the traced ones."""
    import probes
    import workloads as wl

    def run_batch(tracer=None):
        outs = [wl.run_cell(workload, spec, setup, tracer) for spec in workload.batch()]
        workload.check_batch(outs)
        return outs

    setup = probes.SetupTimer()
    plain, with_trace = [], []
    # per-layer metrics carry no bound: one traced batch is enough
    min_batches = 1 if traced else MIN_BATCHES
    with setup.installed():
        workload.prepare()
        warm = wl.run_cell(workload, workload.warmup_spec(), setup)
        if not warm.ok:
            print(f"warm-up cell failed: {warm.error}", file=sys.stderr)
        start = probes.clock()
        while True:
            plain.append(run_batch())
            if traced:
                tracer = probes.Tracer()
                with tracer.installed():
                    with_trace.append((run_batch(tracer), tracer))
            if probes.clock() - start >= seconds and len(plain) >= min_batches:
                break
    check_repeatable(plain + [b for b, _ in with_trace])
    return plain, with_trace


def check_repeatable(batches) -> None:
    """Every batch repeats the same cells: their deterministic outputs must
    agree with the first batch's, bit for bit."""
    first = {o.key: (o.sim_step_s, o.facts) for o in batches[0] if o.ok}
    for batch in batches[1:]:
        for o in batch:
            if o.ok and o.key in first and first[o.key] != (o.sim_step_s, o.facts):
                o.fail("deterministic outputs differ from the first batch")


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and the
    percentile; the maximum when there are ten samples or fewer."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def per_cell(batches, field: str, pick=min) -> list[float]:
    """``field`` of each of the batch's cells, taking ``pick`` of its values
    over the batches.  Every batch repeats the same deterministic work and
    host disturbances only ever add time, so the best of the batches
    (``min``) is the steadiest estimate of a cell's cost."""
    by_key: dict[str, list[float]] = {}
    for batch in batches:
        for o in batch:
            by_key.setdefault(o.key, []).append(getattr(o, field))
    return [pick(v) for v in by_key.values()]


def batch_sum(batches, field: str, pick=min) -> float:
    """One batch's total of ``field``, each cell taken as in :func:`per_cell`."""
    return math.fsum(per_cell(batches, field, pick))


def end_to_end(workload, batches) -> tuple[dict, list[tuple]]:
    """The end-to-end metrics, and the rows of the readable table."""
    import workloads as wl

    cells = [o for b in batches for o in b]
    passing = sum(o.ok for o in cells)
    first = batches[0]
    first_ok = all(o.ok for o in first)
    cell_s = per_cell(batches, "cell_s")
    tail_s, tail_pct = tail(cell_s)
    name, unit, scale = QUALITY[workload.name]
    quality = workload.quality(first) if first_ok else 0.0
    values = {
        "cells_per_s": passing / len(batches) / math.fsum(cell_s),
        "run_s": batch_sum(batches, "run_s"),
        "setup_s": batch_sum(batches, "setup_s", statistics.median),
        "cell_s.p50": statistics.median(cell_s),
        "cell_s.tail": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_step_s": wl.geomean(o.sim_step_s for o in first) if first_ok else 0.0,
        "quality_loss": quality * scale,
    }
    # the table also names each workload's own quality figure and failed_ratio
    notes = {"cell_s.tail": f"p{tail_pct:.1f} of {len(cell_s)} cells"}
    rows = [(m, values[m], u, notes.get(m, "")) for m, u in END_TO_END.items()][:-1]
    for other, other_unit, _ in QUALITY.values():
        if other == name:
            rows.append((other, quality, unit, "reported as quality_loss"))
        else:
            rows.append((other, None, other_unit, f"not measured on {workload.name}"))
    rows.append(("failed_ratio", (len(cells) - passing) / len(cells), "1", ""))
    return values, rows


def per_layer(plain, with_trace) -> dict:
    """Per-layer metrics: counts from the first traced batch (they repeat
    exactly), times as medians over the traced batches."""
    import probes

    outs, tracer = with_trace[0]
    facts = [o.facts for o in outs]
    durations = [t.durations() for _, t in with_trace]
    self_times = [t.self_times() for _, t in with_trace]
    calls = tracer.calls()

    def total(key):
        return sum(f.get(key, 0) for f in facts)

    def dur(name):
        return statistics.median(d[name] for d in durations)

    def self_s(name):
        return statistics.median(d[name] for d in self_times)

    events = tracer.counts["des.events"]
    attempts = tracer.counts["faults.offload_attempts"] or total("kernels_offloaded")
    failed_offloads = total("kernel_timeouts") + total("dma_errors")
    run_untraced = batch_sum(plain, "run_s")
    run_traced = batch_sum([b for b, _ in with_trace], "run_s")
    out = {
        "core.controller.init_s": dur("core.controller.init"),
        "core.taskgraph.compile_s": dur("core.taskgraph.compile"),
        "core.loadbalancer.assign_s": dur("core.loadbalancer.assign"),
        "core.grid.patch_calls": tracer.counts["core.grid.patch_calls"],
        "des.events": events,
        "des.run_s": dur("des.run"),
        "des.host_us_per_event": self_s("des.run") / events * 1e6 if events else 0.0,
        "sched.tasks_run": total("tasks_run"),
        "sched.kernels_offloaded": total("kernels_offloaded"),
        "sched.kernels_on_mpe": total("kernels_on_mpe"),
        "sched.local_copies": total("local_copies"),
        "sched.scrubbed": total("scrubbed"),
        "sched.idle_wait_sim_s": math.fsum(f["idle_wait"] for f in facts),
        "sched.spin_wait_sim_s": math.fsum(f["spin_wait"] for f in facts),
        "simmpi.messages": total("messages"),
        "simmpi.bytes": total("bytes"),
        "simmpi.retries": total("mpi_retries"),
        "sunway.kernel_flops": total("kernel_flops"),
        "sunway.dma_bytes": total("dma_bytes"),
        "burgers.kernel_calls": calls["burgers.apply_kernel"],
        "burgers.kernel_s": dur("burgers.apply_kernel"),
        "burgers.exact_s": dur("burgers.exact_on_region"),
        "core.dw.puts": tracer.counts["core.dw.puts"],
        "core.dw.gets": tracer.counts["core.dw.gets"],
        "core.variables.set_region_s": dur("core.variables.set_region"),
        "io.uda.saves": calls["io.uda.save"],
        "io.uda.save_s": dur("io.uda.save"),
        "io.uda.bytes_written": total("uda_bytes"),
        "io.uda.load_s": dur("io.uda.load"),
        "faults.injected": total("faults_injected"),
        "faults.kernel_timeouts": total("kernel_timeouts"),
        "faults.kernel_retries": total("kernel_retries"),
        "faults.mpe_fallbacks": total("mpe_fallbacks"),
        "faults.recoveries": total("recoveries"),
        "faults.steps_replayed": total("steps_replayed"),
        "faults.offload_success_ratio": (attempts - failed_offloads) / attempts
        if attempts
        else 1.0,
    }
    for name in probes.SPAN_NAMES:
        out[f"{name}.self_s"] = self_s(name)
    out["trace.spans"] = len(tracer.spans)
    out["trace.run_s_untraced"] = run_untraced
    out["trace.run_s_traced"] = run_traced
    out["trace.overhead_s"] = run_traced - run_untraced
    return out


# -- output -------------------------------------------------------------------
def fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_table(title: str, rows) -> None:
    print(title)
    width = max(len(r[0]) for r in rows)
    for name, value, unit, note in rows:
        line = f"  {name:<{width}}  {fmt(value):>14}  {unit:<14}"
        print((line + "  " + note).rstrip())


def run_one(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl

    work = ROOT / f".perfbench_work-{os.getpid()}"
    work.mkdir()
    try:
        workload = wl.make(args.workload, args.seed, work)
        plain, with_trace = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    cells = [o for b in plain for o in b] + [o for b, _ in with_trace for o in b]
    failed = [o for o in cells if not o.ok]
    for o in failed:
        print(f"FAILED {o.key}: {o.error}", file=sys.stderr)
    head = (
        f"{args.workload}  seed {args.seed}  batches {len(plain)}"
        f"  cells {len(cells)}  failed {len(failed)}"
    )
    if args.trace:
        layers = json.loads(LAYERS_PATH.read_text())
        metrics = per_layer(plain, with_trace)
        units = {m: layers[m]["unit"] for m in metrics}
        print_table(
            head + "  (traced: per-layer metrics)",
            [(m, v, units[m], layers[m]["moves"]) for m, v in metrics.items()],
        )
    else:
        metrics, rows = end_to_end(workload, plain)
        units = END_TO_END
        print_table(head, rows)
    result = {
        "correct": not failed,
        "attempted": len(cells),
        "failed": len(failed),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failed else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS and module-level
    caches do not leak from one workload into the next."""
    status, summary = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(pathlib.Path(__file__).resolve())]
        cmd += ["--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]) + "\n")
        status = max(status, proc.returncode)
        if proc.returncode not in (0, 1) or not lines:
            summary["correct"] = False
            continue
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
