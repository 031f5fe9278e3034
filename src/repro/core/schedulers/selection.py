"""Ready-queue selection strategies.

Which ready CPE-kernel task should the MPE dispatch next?  The paper's
runtime pops in FIFO order; Uintah's Unified scheduler and the Task
Bench AMT comparisons motivate alternatives.  Each strategy is a small
object built once per (graph, rank): it pre-scores the rank's tasks and
hands :meth:`~repro.core.schedulers.base.ReadinessTracker.pop` a
``key`` function (``None`` means plain queue order).  Scoring is
max-wins with FIFO tie-breaking, so FIFO remains the degenerate policy.

Register new policies in :data:`POLICIES`; schedulers resolve names
through :func:`make_policy` and never compare policy strings themselves.
"""

from __future__ import annotations


class SelectionPolicy:
    """Base strategy: pre-scored max-wins selection over ready tasks.

    Subclasses override :meth:`scores` to map each local task to a
    numeric priority, or leave it returning ``None`` for FIFO order.
    ``key_fn`` is what the scheduler passes to ``ReadinessTracker.pop``.
    """

    name = "base"

    def __init__(self, graph, rank: int):
        self._scores = self.scores(graph, rank)
        self.key_fn = None if self._scores is None else self._key

    def scores(self, graph, rank: int) -> dict[int, float] | None:
        """Priority per ``dt_id``; ``None`` selects plain FIFO order."""
        return None

    def _key(self, dt) -> float:
        return self._scores.get(dt.dt_id, 0)


class FifoPolicy(SelectionPolicy):
    """Dispatch in readiness order — the paper's baseline behavior."""

    name = "fifo"


class MaxDependentsPolicy(SelectionPolicy):
    """Prefer the task that unblocks the most same-rank dependents."""

    name = "max_dependents"

    def scores(self, graph, rank):
        return {
            dt.dt_id: len(graph.dependents_of(dt))
            for dt in graph.local_tasks(rank)
        }


class MostMessagesPolicy(SelectionPolicy):
    """Prefer the task whose completion releases the most send bytes."""

    name = "most_messages"

    def scores(self, graph, rank):
        return {
            dt.dt_id: sum(m.nbytes for m in graph.sends_after(dt))
            for dt in graph.local_tasks(rank)
        }


class CriticalPathPolicy(SelectionPolicy):
    """Prefer the task heading the longest same-rank dependency chain.

    The score of a task is the number of tasks on the longest downstream
    path it sits at the head of (itself included), computed by memoized
    DFS over :meth:`~repro.core.taskgraph.TaskGraph.dependents_of`.
    Dispatching chain heads first shortens the step's critical path when
    kernels overlap with MPE work.
    """

    name = "critical_path"

    def scores(self, graph, rank):
        memo: dict[int, int] = {}

        def depth(dt) -> int:
            got = memo.get(dt.dt_id)
            if got is None:
                memo[dt.dt_id] = got = 1 + max(
                    (depth(d) for d in graph.dependents_of(dt)), default=0
                )
            return got

        return {dt.dt_id: depth(dt) for dt in graph.local_tasks(rank)}


POLICIES: dict[str, type[SelectionPolicy]] = {
    cls.name: cls
    for cls in (FifoPolicy, MaxDependentsPolicy, MostMessagesPolicy, CriticalPathPolicy)
}


def make_policy(name: str, graph, rank: int) -> SelectionPolicy:
    """Resolve a policy name to a constructed strategy for one rank."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise ValueError(f"unknown select_policy {name!r} (choose from {sorted(POLICIES)})") from None
    return cls(graph, rank)
