"""Derived metrics of the evaluation (paper Sec. VII-B..E)."""

from __future__ import annotations

from repro.harness.runner import ExperimentResult


def scaling_efficiency(base: ExperimentResult, scaled: ExperimentResult) -> float:
    """Strong-scaling efficiency from ``base`` to ``scaled`` (Table V).

    ``efficiency = (T_base * P_base) / (T_scaled * P_scaled)`` — 1.0 is
    ideal speedup proportional to the CG count.
    """
    if base.problem != scaled.problem or base.variant != scaled.variant:
        raise ValueError("efficiency compares the same problem and variant")
    return (base.time_per_step * base.num_cgs) / (scaled.time_per_step * scaled.num_cgs)


def async_improvement(sync: ExperimentResult, asynchronous: ExperimentResult) -> float:
    """The paper's Sec. VII-C effectiveness metric:
    ``(T_sync - T_async) / T_async``."""
    if sync.problem != asynchronous.problem or sync.num_cgs != asynchronous.num_cgs:
        raise ValueError("improvement compares the same problem and CG count")
    return (sync.time_per_step - asynchronous.time_per_step) / asynchronous.time_per_step


def optimization_boost(baseline: ExperimentResult, optimized: ExperimentResult) -> float:
    """Sec. VII-D's performance boost: ``T_host / T_acc``."""
    if baseline.problem != optimized.problem or baseline.num_cgs != optimized.num_cgs:
        raise ValueError("boost compares the same problem and CG count")
    return baseline.time_per_step / optimized.time_per_step


def speedup(base: ExperimentResult, scaled: ExperimentResult) -> float:
    """Raw strong-scaling speedup ``T_base / T_scaled``."""
    return base.time_per_step / scaled.time_per_step
