"""Tests for the experiment runner, metrics and paper-shape assertions.

These are the executable form of the reproduction's claims: on the
calibrated model, async beats sync, offload beats the MPE, SIMD helps,
larger problems are more efficient — the shapes of paper Sec. VII.
"""

import pytest

from repro.harness import metrics
from repro.harness.problems import problem_by_name
from repro.harness.runner import clear_cache, run_experiment, run_instrumented
from repro.harness.variants import variant_by_name

SMALL = problem_by_name("16x16x512")
MEDIUM = problem_by_name("32x64x512")


@pytest.fixture(scope="module")
def quick():
    """Shared 3-step runs for this module (cached by the runner)."""

    def go(problem, variant, cgs):
        return run_experiment(
            problem, variant_by_name(variant), cgs, nsteps=3
        )

    return go


def test_runner_caches(quick):
    a = quick(SMALL, "acc.async", 4)
    b = quick(SMALL, "acc.async", 4)
    assert a is b


def test_runner_rejects_insufficient_cgs():
    big = problem_by_name("128x128x512")
    with pytest.raises(ValueError, match="at least 8"):
        run_experiment(big, variant_by_name("acc.async"), 2, nsteps=1)


def test_gflops_and_efficiency_consistent(quick):
    r = quick(SMALL, "acc_simd.async", 4)
    assert r.gflops > 0
    assert 0 < r.fp_efficiency < 0.05  # paper: around 1% of peak
    assert r.gflops * 1e9 == pytest.approx(r.flops_per_step / r.time_per_step)


def test_flops_per_step_matches_analytic(quick):
    r = quick(SMALL, "acc.async", 4)
    grid_cells = 128 * 128 * 1024
    assert r.flops_per_step == pytest.approx(grid_cells * 311, rel=1e-12)


# -- paper shapes ------------------------------------------------------------------------

def test_shape_async_beats_sync(quick):
    for cgs in (1, 8):
        s = quick(SMALL, "acc.sync", cgs)
        a = quick(SMALL, "acc.async", cgs)
        assert metrics.async_improvement(s, a) > 0.02, cgs


def test_shape_vectorized_improvement_smaller(quick):
    """Sec. VII-C: 'Smaller improvements are seen with the vectorized
    kernel than the non-vectorized kernel'."""
    s, a = quick(SMALL, "acc.sync", 4), quick(SMALL, "acc.async", 4)
    vs, va = quick(SMALL, "acc_simd.sync", 4), quick(SMALL, "acc_simd.async", 4)
    assert metrics.async_improvement(vs, va) < metrics.async_improvement(s, a)


def test_shape_offload_boost_in_paper_band(quick):
    """Sec. VII-D: offload gives 2.7-6.0x (we accept a slightly wider band)."""
    host = quick(SMALL, "host.sync", 4)
    acc = quick(SMALL, "acc.async", 4)
    boost = metrics.optimization_boost(host, acc)
    assert 2.0 < boost < 7.5


def test_shape_simd_gives_further_boost(quick):
    acc = quick(SMALL, "acc.async", 4)
    simd = quick(SMALL, "acc_simd.async", 4)
    extra = metrics.optimization_boost(acc, simd) * (
        acc.time_per_step / acc.time_per_step
    )
    extra = acc.time_per_step / simd.time_per_step
    assert 1.2 < extra < 2.5  # paper: 1.3-2.2x


def test_shape_strong_scaling_speedup(quick):
    one = quick(SMALL, "acc.async", 1)
    eight = quick(SMALL, "acc.async", 8)
    assert 3.0 < metrics.speedup(one, eight) <= 8.0
    eff = metrics.scaling_efficiency(one, eight)
    assert 0.4 < eff <= 1.0


def test_shape_bigger_problem_more_efficient(quick):
    s = quick(SMALL, "acc_simd.async", 8)
    m = quick(MEDIUM, "acc_simd.async", 8)
    assert m.fp_efficiency > s.fp_efficiency


def test_metrics_validate_comparability(quick):
    a = quick(SMALL, "acc.sync", 4)
    b = quick(MEDIUM, "acc.async", 4)
    with pytest.raises(ValueError):
        metrics.async_improvement(a, b)
    with pytest.raises(ValueError):
        metrics.scaling_efficiency(a, b)
    with pytest.raises(ValueError):
        metrics.optimization_boost(a, b)


def test_clear_cache(quick):
    a = quick(SMALL, "acc.async", 2)
    clear_cache()
    b = quick(SMALL, "acc.async", 2)
    assert a is not b
    assert a.time_per_step == b.time_per_step  # deterministic DES


def test_memory_crash_mechanism_matches_paper():
    """The Table III footnote: 64x64x512 'crashes with memory allocation
    errors when using 1 CG' — reproduced as a MemoryError from the
    controller's per-rank accounting."""
    from repro.burgers import BurgersProblem
    from repro.core.controller import SimulationController
    from repro.harness.problems import USABLE_BYTES_PER_CG

    p = problem_by_name("64x64x512")
    grid = p.grid()
    prob = BurgersProblem(grid)
    with pytest.raises(MemoryError, match="memory allocation errors"):
        SimulationController(
            grid, prob.tasks(), prob.init_tasks(), num_ranks=1, real=False,
            memory_limit_bytes=USABLE_BYTES_PER_CG,
        )
    # the paper's workaround: 2 CGs fit
    SimulationController(
        grid, prob.tasks(), prob.init_tasks(), num_ranks=2, real=False,
        memory_limit_bytes=USABLE_BYTES_PER_CG,
    )


def test_experiments_are_fault_free():
    """Without an injector no recovery machinery may ever fire — the
    resilience counter block is structurally zero."""
    s = run_instrumented(SMALL, variant_by_name("acc.async"), 4, nsteps=3).result.stats
    counters = (
        s.kernel_timeouts, s.kernel_retries, s.mpe_fallbacks,
        s.mpi_retries, s.stragglers_detected, s.rank_recoveries,
    )
    assert counters == (0,) * 6
