"""The online schedule validator: a pure observer of the runtime.

:class:`ScheduleValidator` mirrors every rank's task-lifecycle state
machine from the event bus and checks the invariant catalog
(:mod:`repro.verify.invariants`) as the schedule unfolds:

* readiness — a task enters RUNNING only after its task-graph producers
  retired, its ghost messages were unpacked, and its intra-rank copies
  were applied;
* state-machine legality — every transition is one the lifecycle allows;
* completion-flag protocol — ``faaw`` counts are monotone, never exceed
  launched kernels, and match clean retirements at step end;
* data-warehouse access — no read-before-put, double-put,
  use-after-scrub, double-scrub, or premature scrub;
* LDM budget — every offloaded kernel's tile plan fits the 64 KB
  scratchpad.

The validator is wired in like the telemetry registry: pass
``validator=ScheduleValidator()`` to the controller and it subscribes
one :class:`RankValidator` per timestep scheduler, audits each data
warehouse through its observer hook, and watches each offload engine's
completion flag.  It charges **no simulated time** and mutates **no
runtime state** — a validated run's schedule and physics are
bit-identical to an unvalidated one (enforced by
``tests/verify/test_nonperturbation.py``).
"""

from __future__ import annotations

import collections

from repro.core.schedulers.lifecycle import _ALLOWED, LifecycleEvent, TaskState
from repro.sunway.ldm import DEFAULT_LDM_BYTES, LDMAllocationError
from repro.verify.invariants import VerificationError, Violation


class ScheduleValidator:
    """Collects violations from every rank, warehouse, and flag.

    Parameters
    ----------
    ldm_bytes:
        Scratchpad budget offloaded tile plans are checked against.
    strict:
        Raise :class:`VerificationError` at the first violation instead
        of collecting (useful under a debugger; the differential harness
        collects).
    window:
        How many recent events to keep in the ring buffer that a repro
        bundle snapshots around the first violation.
    """

    def __init__(
        self,
        ldm_bytes: int = DEFAULT_LDM_BYTES,
        strict: bool = False,
        window: int = 64,
    ):
        self.ldm_bytes = int(ldm_bytes)
        self.strict = strict
        self.violations: list[Violation] = []
        #: Ring buffer of recent event summaries (all ranks interleaved,
        #: in simulated-time order because the bus is synchronous).
        self.recent: collections.deque[dict] = collections.deque(maxlen=window)
        #: Snapshot of :attr:`recent` taken at the first violation.
        self.first_window: list[dict] | None = None
        self._ranks: dict[int, "RankValidator"] = {}
        self._flags: dict[int, "FlagAudit"] = {}
        self._dw_audit = DWAudit(self)

    # ------------------------------------------------------------ wiring
    def subscriber_for(self, rank: int, graph, costs) -> "RankValidator":
        """Lifecycle-bus subscriber for one rank's timestep scheduler."""
        rv = RankValidator(self, rank, graph, costs)
        self._ranks[rank] = rv
        return rv

    def watch_dw(self, dw) -> None:
        """Audit a data warehouse through its observer hook."""
        dw.observer = self._dw_audit

    def watch_flag(self, rank: int, flag) -> None:
        """Audit one offload engine's completion flag."""
        audit = FlagAudit(self, rank)
        self._flags[rank] = audit
        flag.observer = audit

    # ------------------------------------------------------------ recording
    def note(self, summary: dict) -> None:
        """Append one event summary to the ring buffer."""
        self.recent.append(summary)

    def record(self, violation: Violation) -> None:
        """File a violation (and raise, in strict mode)."""
        self.violations.append(violation)
        if self.first_window is None:
            self.first_window = list(self.recent)
        if self.strict:
            raise VerificationError(violation.render())

    def finalize_flag(self, rank: int) -> None:
        """Step-boundary flag reconciliation: bumps vs clean retires."""
        audit = self._flags.get(rank)
        rv = self._ranks.get(rank)
        if audit is None or audit.finalized or rv is None:
            return
        audit.finalized = True
        if audit.faaws != rv.clean_cpe_retires:
            self.record(
                Violation(
                    "flag-undercount" if audit.faaws < rv.clean_cpe_retires
                    else "flag-overcount",
                    rank=rank,
                    step=rv.step,
                    task=None,
                    t=rv.last_t,
                    detail=(
                        f"completion flag bumped {audit.faaws} time(s) but "
                        f"{rv.clean_cpe_retires} offloaded kernel(s) retired "
                        "cleanly this step"
                    ),
                )
            )

    def finish(self) -> None:
        """End-of-run reconciliation (the last step has no successor)."""
        for rank in list(self._flags):
            self.finalize_flag(rank)

    # ------------------------------------------------------------ results
    @property
    def ok(self) -> bool:
        """Whether the run (so far) is violation-free."""
        return not self.violations

    def report(self) -> dict:
        """Summary dict: counts per invariant plus the full list."""
        self.finish()
        per_invariant: dict[str, int] = {}
        for v in self.violations:
            per_invariant[v.invariant] = per_invariant.get(v.invariant, 0) + 1
        return {
            "ok": self.ok,
            "num_violations": len(self.violations),
            "per_invariant": per_invariant,
            "violations": [v.to_dict() for v in self.violations],
        }


class RankValidator:
    """Mirror of one rank's per-timestep lifecycle state machine.

    Subscribed to the rank's lifecycle bus; consumes its transitions,
    receives, copies and scrubs and rebuilds the readiness ledger
    independently, from the task graph's static structure — so a
    scheduler bug that mis-counts blockers cannot fool it.
    """

    def __init__(self, owner: ScheduleValidator, rank: int, graph, costs):
        self.owner = owner
        self.rank = rank
        self.graph = graph
        self.costs = costs
        # -- static requirements, computed once per dt_id ---------------
        self._deps: dict[int, frozenset[int]] = {}
        self._n_recvs: dict[int, int] = {}
        self._n_copies: dict[int, int] = {}
        #: (label, patch_id) -> local task dt_ids reading it from old DW.
        self._old_readers: dict[tuple[str, int], list[int]] = {}
        self._names: dict[int, str] = {}
        self._static_ready = False
        # -- per-step mutable state -------------------------------------
        self.step = -1
        self.last_t = 0.0
        self.state: dict[int, TaskState] = {}
        self.done: set[int] = set()
        self.recv_count: dict[int, int] = {}
        self.copy_count: dict[int, int] = {}
        self.cpe_launches = 0
        self.clean_cpe_retires = 0
        self.ran_on: dict[int, str] = {}

    # ------------------------------------------------------------ static
    def _compute_static(self, tasks) -> None:
        graph = self.graph
        for dt in tasks:
            did = dt.dt_id
            if did in self._deps:
                continue
            self._names[did] = dt.name
            self._deps[did] = frozenset(graph.internal_deps[did])
            self._n_recvs[did] = len(graph.recvs_for(dt))
            self._n_copies[did] = len(graph.copies_for(dt))
            if dt.patch is not None:
                pid = dt.patch.patch_id
                for req in dt.task.requires:
                    if req.dw == "old" and not req.label.is_reduction:
                        self._old_readers.setdefault(
                            (req.label.name, pid), []
                        ).append(did)

    # ------------------------------------------------------------ helpers
    def _flag(self, invariant: str, detail: str, dt=None) -> None:
        self.owner.record(
            Violation(
                invariant,
                rank=self.rank,
                step=self.step,
                task=dt.name if dt is not None else None,
                t=self.last_t,
                detail=detail,
            )
        )

    def _check_runnable(self, dt) -> None:
        """Readiness contract for a task entering RUNNING."""
        did = dt.dt_id
        missing = [
            self._names.get(d, str(d))
            for d in self._deps.get(did, frozenset())
            if d not in self.done
        ]
        if missing:
            self._flag(
                "run-before-dep",
                f"{dt.name} started with producer(s) not done: "
                + ", ".join(sorted(missing)),
                dt,
            )
        need = self._n_recvs.get(did, 0)
        got = self.recv_count.get(did, 0)
        if got < need:
            self._flag(
                "run-before-recv",
                f"{dt.name} started with {got}/{need} ghost message(s) unpacked",
                dt,
            )
        need = self._n_copies.get(did, 0)
        got = self.copy_count.get(did, 0)
        if got < need:
            self._flag(
                "run-before-copy",
                f"{dt.name} started with {got}/{need} local ghost copies applied",
                dt,
            )

    def _check_ldm(self, dt) -> None:
        """The offloaded kernel's tile plan must fit the LDM budget."""
        budget = self.owner.ldm_bytes
        try:
            ws = self.costs.tile_plan(dt.task, dt.patch).ldm_working_set()
        except LDMAllocationError as exc:
            self._flag("ldm-overflow", f"{dt.name}: no tile plan fits LDM ({exc})", dt)
            return
        if ws > budget:
            self._flag(
                "ldm-overflow",
                f"{dt.name}: tile working set {ws} B exceeds LDM budget {budget} B",
                dt,
            )

    # ------------------------------------------------------------ the bus
    def __call__(self, ev: LifecycleEvent) -> None:
        self.last_t = ev.t
        kind = ev.kind
        if kind == "step-begin":
            # reconcile the previous step's completion flag before the
            # counters reset (the new step's flag is watched afterwards)
            self.owner.finalize_flag(self.rank)
            tasks = ev.info.get("tasks", ())
            self._compute_static(tasks)
            self.step = ev.info.get("step", self.step + 1)
            self.state = {dt.dt_id: TaskState.PENDING for dt in tasks}
            self.done = set()
            self.recv_count = {}
            self.copy_count = {}
            self.cpe_launches = 0
            self.clean_cpe_retires = 0
            self.ran_on = {}
            self.owner.note(
                {"rank": self.rank, "t": ev.t, "kind": "step-begin", "step": self.step}
            )
            return
        dt = ev.dt
        if kind == "transition":
            state = ev.state
            self.owner.note(
                {
                    "rank": self.rank,
                    "t": ev.t,
                    "kind": state.name,
                    "task": dt.name,
                    **{
                        k: v
                        for k, v in ev.info.items()
                        if k in ("backend", "cause", "retry")
                    },
                }
            )
            cur = self.state.get(dt.dt_id)
            if cur is None:
                self._flag(
                    "unknown-task",
                    f"{dt.name} is not part of timestep {self.step}",
                    dt,
                )
                self.state[dt.dt_id] = state  # track it anyway
                return
            if state not in _ALLOWED[cur]:
                self._flag(
                    "illegal-transition",
                    f"{dt.name}: {cur.name} -> {state.name}",
                    dt,
                )
            self.state[dt.dt_id] = state
            if state is TaskState.RUNNING:
                self._check_runnable(dt)
                backend = ev.info.get("backend")
                if backend is not None:
                    self.ran_on[dt.dt_id] = backend
                if backend == "cpe":
                    self.cpe_launches += 1
                    self._check_ldm(dt)
            elif state is TaskState.DONE:
                self.done.add(dt.dt_id)
                if self.ran_on.get(dt.dt_id) == "cpe":
                    self.clean_cpe_retires += 1
        elif kind == "msg-recv":
            if dt is not None:
                self.recv_count[dt.dt_id] = self.recv_count.get(dt.dt_id, 0) + 1
            self.owner.note(
                {"rank": self.rank, "t": ev.t, "kind": "msg-recv",
                 "task": dt.name if dt is not None else None}
            )
        elif kind == "local-copy":
            if dt is not None:
                self.copy_count[dt.dt_id] = self.copy_count.get(dt.dt_id, 0) + 1
            self.owner.note(
                {"rank": self.rank, "t": ev.t, "kind": "local-copy",
                 "task": dt.name if dt is not None else None}
            )
        elif kind == "scrubbed":
            label = ev.info.get("label")
            pid = ev.info.get("patch")
            self.owner.note(
                {"rank": self.rank, "t": ev.t, "kind": "scrubbed",
                 "label": label, "patch": pid}
            )
            for did in self._old_readers.get((label, pid), ()):
                if self.state.get(did) is not TaskState.DONE:
                    st = self.state.get(did)
                    self._flag(
                        "scrub-early",
                        f"old {label!r}@p{pid} scrubbed while reader "
                        f"{self._names.get(did, did)} is "
                        f"{st.name if st is not None else 'unregistered'}",
                    )


class FlagAudit:
    """Observer of one step's completion flag (``faaw`` protocol)."""

    def __init__(self, owner: ScheduleValidator, rank: int):
        self.owner = owner
        self.rank = rank
        #: Total clean completion bumps observed this step.
        self.faaws = 0
        self.finalized = False

    def on_clear(self, flag, old_value: int) -> None:
        pass  # clears precede launches; nothing to check

    def on_faaw(self, flag, old: int, new: int) -> None:
        rv = self.owner._ranks.get(self.rank)
        step = rv.step if rv is not None else -1
        t = rv.last_t if rv is not None else 0.0
        if new <= old:
            self.owner.record(
                Violation(
                    "flag-nonmonotone",
                    rank=self.rank,
                    step=step,
                    task=None,
                    t=t,
                    detail=f"faaw moved the counter {old} -> {new}",
                )
            )
        self.faaws += 1
        launches = rv.cpe_launches if rv is not None else 0
        if self.faaws > launches:
            self.owner.record(
                Violation(
                    "flag-overcount",
                    rank=self.rank,
                    step=step,
                    task=None,
                    t=t,
                    detail=(
                        f"flag bumped {self.faaws} time(s) with only "
                        f"{launches} kernel(s) offloaded this step"
                    ),
                )
            )


class DWAudit:
    """Observer of every watched data warehouse's access bugs.

    The warehouse raises its own :class:`KeyError` after notifying us;
    recording here attributes the breach to the running schedule even if
    the raise is swallowed upstream.
    """

    def __init__(self, owner: ScheduleValidator):
        self.owner = owner

    def _step_t(self, dw) -> tuple[int, float]:
        rv = self.owner._ranks.get(dw.rank)
        return (rv.step, rv.last_t) if rv is not None else (dw.step, 0.0)

    def _record(self, dw, invariant: str, key: tuple[str, int], what: str) -> None:
        step, t = self._step_t(dw)
        label, pid = key
        self.owner.record(
            Violation(
                invariant,
                rank=dw.rank,
                step=step,
                task=None,
                t=t,
                detail=f"{what}: {label!r}@p{pid} in DW generation {dw.step}",
            )
        )

    def on_dw_double_put(self, dw, key) -> None:
        self._record(dw, "dw-double-put", key, "second put")

    def on_dw_bad_get(self, dw, key, scrubbed: bool) -> None:
        if scrubbed:
            self._record(dw, "dw-use-after-scrub", key, "read of scrubbed variable")
        else:
            self._record(dw, "dw-read-before-put", key, "read before any put")

    def on_dw_double_scrub(self, dw, key) -> None:
        self._record(dw, "dw-double-scrub", key, "second scrub")
