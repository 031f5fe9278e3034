"""Shared plumbing for the benchmark suite.

Each ``bench_*`` module regenerates one table or figure of the paper.
The pytest-benchmark fixture measures the *host* cost of regenerating it
(the DES is deterministic, so one round suffices); the regenerated
artifact itself — the paper-shaped table — is printed and written under
``benchmarks/results/`` for EXPERIMENTS.md.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def publish(results_dir):
    """Print a regenerated artifact and persist it under results/."""

    def _publish(name: str, text: str) -> None:
        (results_dir / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n")

    return _publish


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark a deterministic regeneration exactly once."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
