"""The metrics registry: counters and histograms.

Deliberately small and dependency-free — the registry sits behind hook
sites inside the hottest DES loops, so instruments are plain Python
objects with one-attribute updates, and *all* derived statistics
(quantiles, means) are computed at snapshot time, never on the hot path.

Naming convention: dotted lowercase paths, ``subsystem.what[.unit]`` —
``sched.ready_depth``, ``ghost.bytes.sent``, ``dma.get.bytes``,
``kernel.seconds.<task>``.  The full catalog lives in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import math


class Counter:
    """A monotonically increasing total (events, bytes, seconds)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n=1) -> None:
        """Add ``n`` (int or float) to the total."""
        self.value += n

    def snapshot(self):
        return self.value


class Histogram:
    """A sample distribution with nearest-rank quantiles.

    Samples are kept raw (appended on observe, sorted lazily at query
    time) — runs are bounded to tens of thousands of samples, and exact
    quantiles beat bucketing error for the analyzer's p95 claims.
    """

    __slots__ = ("samples", "_sorted")

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._sorted = True

    def observe(self, x: float) -> None:
        """Record one sample."""
        if self._sorted and self.samples and x < self.samples[-1]:
            self._sorted = False
        self.samples.append(x)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        return sum(self.samples)

    @property
    def mean(self) -> float:
        """Arithmetic mean; 0.0 on an empty histogram."""
        return self.total / len(self.samples) if self.samples else 0.0

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile ``q`` in [0, 1]; 0.0 when empty.

        A single sample is every quantile of itself; ``q=0`` is the
        minimum, ``q=1`` the maximum.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.samples:
            return 0.0
        if not self._sorted:
            self.samples.sort()
            self._sorted = True
        rank = max(math.ceil(q * len(self.samples)), 1)
        return self.samples[rank - 1]

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "max": self.quantile(1.0),
        }


class MetricsRegistry:
    """Named instruments, created on first touch.

    One name maps to exactly one instrument kind; asking for the same
    name as a different kind is a programming error and raises.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Histogram] = {}

    def _get(self, name: str, cls):
        m = self._metrics.get(name)
        if m is None:
            m = self._metrics[name] = cls()
        elif not isinstance(m, cls):
            raise TypeError(
                f"metric {name!r} already registered as {type(m).__name__}, "
                f"not {cls.__name__}"
            )
        return m

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    # -- hot-path conveniences -----------------------------------------------
    def inc(self, name: str, n=1) -> None:
        self.counter(name).inc(n)

    def observe(self, name: str, x: float) -> None:
        self.histogram(name).observe(x)

    # -- reporting -----------------------------------------------------------
    def names(self) -> list[str]:
        return sorted(self._metrics)

    def snapshot(self) -> dict:
        """All instruments as plain JSON-able values, sorted by name."""
        out = {}
        for name in self.names():
            m = self._metrics[name]
            out[name] = {"kind": type(m).__name__.lower(), "value": m.snapshot()}
        return out
