"""Ready-queue selection policies.

Which ready CPE-kernel task should the MPE dispatch next?  The paper's
runtime pops in FIFO order; Uintah's Unified scheduler and the Task
Bench AMT comparisons motivate alternatives.  A policy is a scorer run
once per (graph, rank): it maps each local task's ``dt_id`` to a
numeric priority, and :meth:`~repro.core.schedulers.base.
ReadinessTracker.pop` dispatches the highest score, ties kept in queue
order.  ``fifo`` has no scorer (plain queue order), so it stays the
degenerate policy.

Register new policies in :data:`POLICIES`; schedulers resolve names
through :func:`select_key` and never compare policy strings themselves.
"""

from __future__ import annotations

import typing as _t


def _most_messages(graph, rank: int) -> dict[int, float]:
    """Prefer the task whose completion releases the most send bytes."""
    return {
        dt.dt_id: sum(m.nbytes for m in graph.sends_after(dt))
        for dt in graph.local_tasks(rank)
    }


#: Policy name -> scorer; ``None`` dispatches in readiness order (the
#: paper's baseline behaviour).
POLICIES: dict[str, _t.Callable[[object, int], dict[int, float]] | None] = {
    "fifo": None,
    "most_messages": _most_messages,
}


def select_key(name: str, graph, rank: int) -> _t.Callable[[object], float] | None:
    """The :meth:`ReadinessTracker.pop` key of policy ``name`` on one rank.

    ``None`` means plain queue order; otherwise the key returns a task's
    score (0 for tasks the scorer did not cover).
    """
    try:
        scorer = POLICIES[name]
    except KeyError:
        raise ValueError(f"unknown select_policy {name!r} (choose from {sorted(POLICIES)})") from None
    if scorer is None:
        return None
    scores = scorer(graph, rank)
    return lambda dt: scores.get(dt.dt_id, 0)
