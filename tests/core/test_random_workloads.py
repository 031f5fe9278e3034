"""Property tests: randomized multi-stage workloads through the full stack.

Hypothesis generates task pipelines (random stage counts, ghost widths,
optional reductions) via the shared strategies module
(``tests/strategies.py``), random rank counts and scheduler modes; every combination must complete without deadlock and —
in real mode — produce results identical to a single-rank reference.
This is the out-of-order-execution safety net for the whole runtime.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from tests.strategies import SCHEDULER_MODES, build_pipeline, pipelines, run_workload


@settings(deadline=None, max_examples=25)
@given(
    pipeline=pipelines(),
    num_ranks=st.sampled_from([2, 4, 8]),
    mode=st.sampled_from(SCHEDULER_MODES),
)
def test_property_random_pipeline_matches_serial_reference(pipeline, num_ranks, mode):
    tasks, init, labels = build_pipeline(**pipeline)
    ref, ref_res = run_workload(tasks, init, 1, "async", nsteps=2)
    # fresh task objects for the second controller (tasks are stateless,
    # but build again to rule out shared-state artefacts)
    tasks2, init2, _ = build_pipeline(**pipeline)
    got, got_res = run_workload(tasks2, init2, num_ranks, mode, nsteps=2)
    assert set(got) == set(ref)
    for key in ref:
        assert np.array_equal(ref[key], got[key]), key
    # kernel executions are distribution-invariant (reduction detailed
    # tasks are per-rank, so total tasks_run is not)
    got_kernels = got_res.stats.kernels_offloaded + got_res.stats.kernels_on_mpe
    ref_kernels = ref_res.stats.kernels_offloaded + ref_res.stats.kernels_on_mpe
    assert got_kernels == ref_kernels


@settings(deadline=None, max_examples=10)
@given(
    num_stages=st.integers(1, 3),
    num_ranks=st.sampled_from([2, 4]),
)
def test_property_async_never_slower_than_sync(num_stages, num_ranks):
    tasks, init, _ = build_pipeline(num_stages, [1], with_reduction=True)
    _, sync_res = run_workload(tasks, init, num_ranks, "sync", nsteps=2)
    tasks2, init2, _ = build_pipeline(num_stages, [1], with_reduction=True)
    _, async_res = run_workload(tasks2, init2, num_ranks, "async", nsteps=2)
    assert async_res.time_per_step <= sync_res.time_per_step * 1.001
