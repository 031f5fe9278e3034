"""The traced span sequence of a run is pinned, span for span.

The golden oracles run untraced, so they cannot see a span that moves,
vanishes or changes its bounds.  Here each scenario runs traced and
hashes its whole span list, in recording order, as
``(rank, lane, name, t0.hex(), t1.hex())``: any change to what the
schedulers and the offload engine record, or when, changes the digest.

The faulted scenarios use a fault seed whose runs contain kernel
timeouts, DMA errors and MPE fallbacks (and, in async mode, stragglers
and interference debt), so every span site of the offload engine is on
the recorded path.  Regenerate the digests only for a change that is
meant to move spans::

    PYTHONPATH=src python tests/core/test_span_sequence.py
"""

from __future__ import annotations

import hashlib

import pytest

from repro.burgers import BurgersProblem
from repro.core.controller import SimulationController
from repro.core.grid import Grid
from repro.faults import FaultConfig, FaultInjector, ResiliencePolicy

#: Scenario -> sha256 of its span sequence.
DIGESTS = {
    "async": "3a0ef65c7d0c4afdb5a684e7c679b1e0ce60401d2297885137c63349a9e33bca",
    "async_faulted": "855767a02626f0f86d0bce3ed9e6d63461916ee88b8d799a5fdcd67cdfefc7b8",
    "sync": "02787795ef87eda7b2aa6d08058731ef0f23c2480a346cd036c3b6e5cd551378",
    "sync_faulted": "1f60d37d8fa0a109de75a9c0da5201fdcfaef73e8bc219365524e21641755d93",
}


def _run(mode: str, faulted: bool):
    grid = Grid(extent=(12, 12, 12), layout=(2, 2, 1))
    prob = BurgersProblem(grid)
    injector = None
    kwargs = {}
    if faulted:
        injector = FaultInjector(
            FaultConfig(
                seed=1,
                kernel_slowdown_prob=0.2,
                # slow enough to be a straggler, too fast for the watchdog
                kernel_slowdown_factor=2.5,
                kernel_stuck_prob=0.1,
                dma_error_prob=0.2,
                msg_drop_prob=0.1,
            )
        )
        kwargs = {"faults": injector, "resilience": ResiliencePolicy(max_offload_retries=1)}
    ctl = SimulationController(
        grid,
        prob.tasks(),
        prob.init_tasks(),
        num_ranks=2,
        mode=mode,
        real=False,
        trace_enabled=True,
        **kwargs,
    )
    return ctl.run(nsteps=4, dt=prob.stable_dt()), injector


def _digest(spans) -> str:
    h = hashlib.sha256()
    for s in spans:
        h.update(repr((s.rank, s.lane, s.name, s.t0.hex(), s.t1.hex())).encode())
    return h.hexdigest()


def _scenario(name: str):
    mode, _, faulted = name.partition("_")
    return _run(mode, bool(faulted))


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_span_sequence_is_pinned(name):
    res, injector = _scenario(name)
    spans = res.trace.spans
    lanes = {s.lane for s in spans}
    prefixes = {s.name.split(":", 1)[0] for s in spans if ":" in s.name}
    assert {"mpe", "cpe"} <= lanes
    if name.startswith("sync"):
        assert "spin" in lanes
    else:
        assert "interference" in prefixes
    if injector is not None:
        stats = res.stats
        # the fault seed reaches every recovery path
        assert stats.kernel_timeouts > 0 and stats.mpe_fallbacks > 0
        assert injector.counts_by_kind().get("dma_error", 0) > 0
        assert "recover-fallback" in prefixes
        if name.startswith("async"):
            assert stats.stragglers_detected > 0
            assert {"straggler", "recover-timeout"} <= prefixes
    assert _digest(spans) == DIGESTS[name]


@pytest.mark.parametrize(
    "name",
    [
        "async_faulted",
        pytest.param(
            "sync_faulted",
            marks=pytest.mark.xfail(
                strict=True,
                reason="OffloadEngine.spin_to_completion records no recover-timeout "
                "span and checks no straggler_factor (a model change: ROADMAP item 1)",
            ),
        ),
    ],
)
def test_each_watchdog_timeout_records_a_recovery_span(name):
    res, _ = _scenario(name)
    spans = sum(1 for s in res.trace.spans if s.name.startswith("recover-timeout:"))
    assert res.stats.kernel_timeouts > 0
    assert spans == res.stats.kernel_timeouts


if __name__ == "__main__":  # pragma: no cover - regeneration aid
    for name in sorted(DIGESTS):
        print(f'    "{name}": "{_digest(_scenario(name)[0].trace.spans)}",')
