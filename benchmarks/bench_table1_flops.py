"""Table I: FLOPs per cell of the model problem.

Paper values: 299 -> 311 flops/cell rising with problem size, ~215 of
~311 contributed by exponentials.  Regenerated over the Table III grid
suite from ``BURGERS_KERNEL_COST``, the analytic per-cell flop count the
scheduler charges each kernel (the paper read hardware counters).
"""

import pytest

from benchmarks.conftest import run_once
from repro.harness.tables import table1, table1_data


@pytest.mark.benchmark(group="table1")
def test_table1_flops_per_cell(benchmark, publish):
    rows = run_once(benchmark, table1_data)
    publish("table1", table1())

    by_name = {r["problem"]: r for r in rows}
    # paper band: smallest 299, largest 311; divided by the ghosted cell count
    assert 296 <= by_name["16x16x512"]["flops_per_cell"] <= 305
    assert 306 <= by_name["128x128x512"]["flops_per_cell"] <= 312
    # monotone rise with problem size
    seq = [r["flops_per_cell"] for r in rows]
    assert seq == sorted(seq)
    # exponential share ~215/311
    assert 0.66 <= by_name["128x128x512"]["exp_share"] <= 0.72
