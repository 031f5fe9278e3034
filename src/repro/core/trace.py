"""Execution tracing: who was busy when, on which lane.

The asynchronous scheduler's entire value proposition is *overlap*:
CPE kernel execution concurrent with MPE-side communication and task
management.  The tracer records busy spans per ``(rank, lane)`` — lanes
are ``"mpe"`` and ``"cpe"`` — so tests can assert that overlap actually
happens (and that the synchronous mode has none), and the examples can
print Gantt-style timelines.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class Span:
    """One busy interval."""

    rank: int
    lane: str
    name: str
    t0: float
    t1: float

    def __post_init__(self) -> None:
        if self.t1 < self.t0:
            raise ValueError(f"span ends before it starts: {self}")

    @property
    def duration(self) -> float:
        """Span length in seconds."""
        return self.t1 - self.t0


def _time_order(s: Span) -> tuple[float, float]:
    return (s.t0, s.t1)


def merge_intervals(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of possibly-overlapping intervals, sorted."""
    out: list[tuple[float, float]] = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def busy_intervals(spans) -> list[tuple[float, float]]:
    """Merged busy intervals of a span list."""
    return merge_intervals([(s.t0, s.t1) for s in spans])


def clip_intervals(
    merged: list[tuple[float, float]], lo: float, hi: float
) -> list[tuple[float, float]]:
    """Restrict a merged interval list to the window ``[lo, hi]``."""
    return [(max(a, lo), min(b, hi)) for a, b in merged if b > lo and a < hi]


def intersect_total(a: list[tuple[float, float]], b: list[tuple[float, float]]) -> float:
    """Total length of the intersection of two merged interval lists."""
    total = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return total


class Tracer:
    """Collects spans; disabled tracers are free."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []

    def record(self, rank: int, lane: str, name: str, t0: float, t1: float) -> None:
        """Add a busy span (no-op when disabled)."""
        if self.enabled:
            self.spans.append(Span(rank, lane, name, t0, t1))

    # -- queries -----------------------------------------------------------------
    def spans_for(self, rank: int, lane: str | None = None) -> list[Span]:
        """Spans of one rank, optionally filtered by lane, time-ordered."""
        out = [
            s
            for s in self.spans
            if s.rank == rank and (lane is None or s.lane == lane)
        ]
        return sorted(out, key=_time_order)

    def by_lane(self) -> dict[tuple[int, str], list[Span]]:
        """Every span grouped by ``(rank, lane)`` in one pass over the list,
        each group time-ordered exactly as :meth:`spans_for` orders it."""
        groups: dict[tuple[int, str], list[Span]] = {}
        for s in self.spans:
            groups.setdefault((s.rank, s.lane), []).append(s)
        for group in groups.values():
            group.sort(key=_time_order)
        return groups

    def busy_time(self, rank: int, lane: str) -> float:
        """Total (union) busy seconds on one lane."""
        return sum(hi - lo for lo, hi in busy_intervals(self.spans_for(rank, lane)))

    def overlap_time(self, rank: int, lane_a: str = "mpe", lane_b: str = "cpe") -> float:
        """Seconds during which *both* lanes were busy — the paper's overlap."""
        return intersect_total(
            busy_intervals(self.spans_for(rank, lane_a)),
            busy_intervals(self.spans_for(rank, lane_b)),
        )

    def summarize(self, rank: int | None = None) -> dict[tuple[str, str], dict]:
        """Aggregate spans by ``(activity, lane)``: count, total, mean.

        Activity names like ``mpe-part:timeAdvance@p3`` are folded to
        their prefix (``mpe-part``) plus the task name (``timeAdvance``),
        so per-task-kind totals come out directly — the runtime's
        answer to "where did the MPE time go?".  The lane is part of the
        key: the same activity name on the ``mpe`` and ``cpe`` lanes is
        two distinct entries, never silently merged.
        """
        out: dict[tuple[str, str], dict] = {}
        for s in self.spans:
            if rank is not None and s.rank != rank:
                continue
            name = s.name
            if ":" in name:
                prefix, detail = name.split(":", 1)
                name = f"{prefix}:{detail.split('@', 1)[0]}"
            elif "@" in name:  # bare kernel spans like "timeAdvance@p3"
                name = name.split("@", 1)[0]
            entry = out.setdefault(
                (name, s.lane), {"count": 0, "total": 0.0, "lane": s.lane}
            )
            entry["count"] += 1
            entry["total"] += s.duration
        for entry in out.values():
            entry["mean"] = entry["total"] / entry["count"]
        return out

    def to_chrome_trace(self) -> list[dict]:
        """Spans in Chrome tracing format (load in chrome://tracing or
        Perfetto): one "process" per rank, one "thread" per lane,
        microsecond timestamps.  ``process_name`` metadata labels each
        pid as ``rank N`` in Perfetto's track list, and span events are
        emitted in ``(ts, pid, tid)`` order so two traces of the same
        run diff cleanly."""
        lanes = sorted({(s.rank, s.lane) for s in self.spans})
        tid_of = {key: i for i, key in enumerate(lanes)}
        events: list[dict] = []
        for rank in sorted({r for r, _lane in lanes}):
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": rank,
                    "tid": 0,
                    "args": {"name": f"rank {rank}"},
                }
            )
        for (rank, lane), tid in tid_of.items():
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": rank,
                    "tid": tid,
                    "args": {"name": lane},
                }
            )
        spans = sorted(self.spans, key=lambda s: (s.t0, s.rank, tid_of[(s.rank, s.lane)], s.t1))
        for s in spans:
            events.append(
                {
                    "name": s.name,
                    "cat": s.lane,
                    "ph": "X",
                    "pid": s.rank,
                    "tid": tid_of[(s.rank, s.lane)],
                    "ts": s.t0 * 1e6,
                    "dur": s.duration * 1e6,
                }
            )
        return events

    def timeline(self, rank: int, width: int = 72) -> str:
        """ASCII Gantt chart of one rank (for examples/debugging)."""
        spans = self.spans_for(rank)
        if not spans:
            return f"rank {rank}: (no spans)"
        t0 = min(s.t0 for s in spans)
        t1 = max(s.t1 for s in spans)
        scale = (t1 - t0) or 1.0
        lines = [f"rank {rank}: {t0:.6f}s .. {t1:.6f}s"]
        for lane in sorted({s.lane for s in spans}):
            row = [" "] * width
            for s in self.spans_for(rank, lane):
                lo = int((s.t0 - t0) / scale * (width - 1))
                hi = max(int((s.t1 - t0) / scale * (width - 1)), lo)
                for x in range(lo, hi + 1):
                    row[x] = "#" if lane == "cpe" else "="
            lines.append(f"  {lane:>4} |{''.join(row)}|")
        return "\n".join(lines)
