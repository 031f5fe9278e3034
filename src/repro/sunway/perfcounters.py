"""FLOP counting with SW26010 performance-counter semantics.

The paper (Sec. VII-E) counts floating point operations with the precise
hardware counters on the CPEs, noting one idiosyncrasy: *division and
square root count as single operations* even though they take many more
cycles.  Table I is produced the same way.  This module reproduces that
counting convention:

* add/sub/mul/div/sqrt/compare each count as 1;
* a fused multiply-add counts as 2 (one multiply, one add — SW26010's
  counters increment per retired flop, not per instruction);
* an exponential counts as the flop cost of the software library that
  evaluated it (see :mod:`repro.sunway.fastmath`).

Counters are plain value objects; kernels accept an optional counter and
report *analytic* per-cell counts multiplied by the number of cells they
actually touched, which mirrors what the hardware counters observe while
keeping real-numerics runs fast.
"""

from __future__ import annotations

import dataclasses

from repro.sunway.fastmath import exp_flops


@dataclasses.dataclass
class FlopReport:
    """Immutable snapshot of a counter, with derived totals."""

    adds: int = 0
    muls: int = 0
    divs: int = 0
    sqrts: int = 0
    compares: int = 0
    exp_flops: int = 0
    exp_calls: int = 0

    @property
    def total(self) -> int:
        """Total flops, SW26010 convention (div/sqrt = 1 each)."""
        return self.adds + self.muls + self.divs + self.sqrts + self.compares + self.exp_flops

    @property
    def exp_share(self) -> float:
        """Fraction of total flops contributed by exponentials."""
        total = self.total
        return self.exp_flops / total if total else 0.0


class FlopCounter:
    """Accumulating flop counter.

    All ``count_*`` methods take a ``times`` multiplier so a kernel can
    register per-cell costs once per bulk (vectorized) operation.
    """

    def __init__(self, fast_exp: bool = True):
        self.fast_exp = fast_exp
        self._r = FlopReport()

    # -- counting ------------------------------------------------------------
    def count(
        self,
        adds: int = 0,
        muls: int = 0,
        divs: int = 0,
        sqrts: int = 0,
        compares: int = 0,
        exps: int = 0,
        times: int = 1,
    ) -> None:
        """Register operations, each scaled by ``times``."""
        if times < 0:
            raise ValueError(f"times must be >= 0, got {times}")
        r = self._r
        r.adds += adds * times
        r.muls += muls * times
        r.divs += divs * times
        r.sqrts += sqrts * times
        r.compares += compares * times
        if exps:
            r.exp_calls += exps * times
            r.exp_flops += exps * times * exp_flops(self.fast_exp)

    # -- reporting -----------------------------------------------------------
    @property
    def total(self) -> int:
        """Total flops so far."""
        return self._r.total

    def report(self) -> FlopReport:
        """A snapshot copy of the current counts."""
        return dataclasses.replace(self._r)

    def reset(self) -> None:
        """Zero all counts."""
        self._r = FlopReport()

    def merge(self, other: "FlopCounter | FlopReport") -> None:
        """Fold another counter/report into this one (cross-CPE reduce)."""
        o = other.report() if isinstance(other, FlopCounter) else other
        r = self._r
        r.adds += o.adds
        r.muls += o.muls
        r.divs += o.divs
        r.sqrts += o.sqrts
        r.compares += o.compares
        r.exp_flops += o.exp_flops
        r.exp_calls += o.exp_calls
