"""Re-record ``reference.json``, the outputs the benchmark checks against.

Only for an intended change of the simulated model or the numerics::

    python3 perfbench/record.py

It records, for ``sweep-model``, every cell's exact ``total_time``,
message and byte counts and kernel flops; for ``real-burgers``, the L2
error against the exact solution at each start time the seed can pick.
"""

from __future__ import annotations

import json
import math
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import probes  # noqa: E402
import workloads as wl  # noqa: E402


def main() -> int:
    setup = probes.SetupTimer()
    work = HERE.parent / ".perfbench_work-record"
    with setup.installed():
        sweep = wl.SweepModel(0, work, {})
        sweep_ref = {}
        for spec in sweep.cells:
            facts = wl.run_cell(sweep, spec, setup).facts
            sweep_ref["/".join(map(str, spec))] = {
                k: facts[k] for k in ("total_time", "messages", "bytes", "kernel_flops")
            }
        real = wl.RealBurgers(0, work, {"l2_error": [math.inf] * len(wl.T0_CHOICES)})
        l2 = []
        for i, t0 in enumerate(wl.T0_CHOICES):
            real.t0_index, real.t0 = i, t0
            l2.append(wl.run_cell(real, "async", setup).facts["l2_error"])
    reference = {
        "sweep-model": sweep_ref,
        "real-burgers": {"t0": list(wl.T0_CHOICES), "l2_error": l2},
        "faulted-restart": {},
    }
    wl.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {wl.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
