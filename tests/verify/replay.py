"""Record-and-replay for lifecycle event streams.

The live bus can never carry an illegal transition — the state machine
raises before notifying subscribers — so the validator's own checks are
exercised by *replaying* recorded (and deliberately corrupted) event
streams into a fresh :class:`~repro.verify.validator.RankValidator`.
That is what the mutation self-tests do: record a clean run, mutate the
stream (drop an unpack, duplicate a completion, reorder a retirement),
and assert the validator flags exactly the planted bug.  Only the
verification tests use it.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.core.schedulers.lifecycle import LifecycleEvent
from repro.verify.validator import ScheduleValidator


@dataclasses.dataclass
class RecordedEvent:
    """One bus announcement, frozen for replay."""

    kind: str
    dt: object
    state: object
    t: float
    info: dict

    def to_live(self) -> LifecycleEvent:
        return LifecycleEvent(self.kind, self.dt, self.state, self.t, self.info)


class EventRecorder:
    """Lifecycle-bus subscriber that freezes the event stream.

    Subscribe it to a scheduler's lifecycle
    (``sched.lifecycle.subscribe(EventRecorder())``), run, then replay —
    verbatim or mutated — with :func:`replay`.
    """

    def __init__(self):
        self.events: list[RecordedEvent] = []

    def __call__(self, ev: LifecycleEvent) -> None:
        self.events.append(
            RecordedEvent(ev.kind, ev.dt, ev.state, ev.t, dict(ev.info))
        )

    def __len__(self) -> int:
        return len(self.events)


def replay(
    events: _t.Iterable[RecordedEvent],
    rank: int,
    graph,
    costs,
    validator: ScheduleValidator | None = None,
) -> ScheduleValidator:
    """Feed a (possibly mutated) event stream through a fresh validator.

    Returns the :class:`ScheduleValidator` holding whatever violations
    the stream exhibited.  ``validator`` may be supplied pre-configured
    (e.g. with a tiny ``ldm_bytes`` budget).
    """
    v = validator if validator is not None else ScheduleValidator()
    rv = v.subscriber_for(rank, graph, costs)
    for ev in events:
        rv(ev.to_live())
    v.finish()
    return v
