"""One run's telemetry collection: registry + per-(rank, step) buckets.

:class:`RunTelemetry` is the object a run carries when observability is
on.  It owns the :class:`~repro.telemetry.metrics.MetricsRegistry` and
the per-``(rank, step)`` counter buckets the ledger is built from, and
exposes the *explicit hook* methods the engines call directly for data
the lifecycle bus does not carry (queue depths, kernel durations, DMA
volume, fabric traffic).  Every hook is a no-op-by-absence: callers hold
``telemetry = None`` by default and guard with one ``is not None`` test,
so a run without telemetry executes the pre-telemetry code path exactly.

:class:`TelemetrySubscriber` is the lifecycle-bus side: one per rank,
subscribed by :class:`~repro.core.schedulers.base.SchedulerCore` next to
the stats/trace subscribers.  It attributes every event to the emitting
rank's *current timestep* (counted from ``step-begin`` events), which is
what makes per-timestep accounting possible without threading step
numbers through every engine.

None of this may ever charge simulated time: telemetry observes the DES,
it must not perturb it.  The schedule with telemetry attached is
bit-identical to the schedule without (pinned by the telemetry tests).
"""

from __future__ import annotations

import collections

from repro.core.schedulers.lifecycle import LifecycleEvent, TaskState
from repro.telemetry.metrics import MetricsRegistry


class RunTelemetry:
    """Everything one instrumented run collects."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        #: Per-(rank, step) counter buckets; step 0 is initialization
        #: spillover (schedulers emit before their first step-begin only
        #: if instrumented during init, which the controller avoids).
        self.step_buckets: dict[tuple[int, int], collections.Counter] = {}
        self._cur_step: dict[int, int] = {}

    # ------------------------------------------------------------ wiring
    def subscriber_for(self, rank: int) -> "TelemetrySubscriber":
        """The lifecycle-bus observer for one rank's scheduler."""
        return TelemetrySubscriber(self, rank)

    def begin_step(self, rank: int) -> None:
        self._cur_step[rank] = self._cur_step.get(rank, 0) + 1

    def bump(self, rank: int, key: str, n=1) -> None:
        """Add ``n`` to ``key`` in rank's current-step bucket."""
        bkey = (rank, self._cur_step.get(rank, 0))
        bucket = self.step_buckets.get(bkey)
        if bucket is None:
            bucket = self.step_buckets[bkey] = collections.Counter()
        bucket[key] += n

    def step_totals(self, step: int) -> collections.Counter:
        """Bucket values of one step summed over all ranks."""
        out: collections.Counter = collections.Counter()
        for (_rank, s), bucket in self.step_buckets.items():
            if s == step:
                out.update(bucket)
        return out

    # ------------------------------------------------ explicit hooks
    # Called directly from the engines, never via the bus.  Each carries
    # data the bus events do not: depths, durations, volumes.

    def on_loop_sample(self, ready: int, inflight: int, workq: int) -> None:
        """Scheduler-loop sample: queue depths at one iteration."""
        reg = self.registry
        reg.observe("sched.ready_depth", ready)
        reg.observe("cpe.inflight", inflight)
        reg.observe("comm.workq_depth", workq)

    def on_kernel_launch(self, rank: int, task_name: str, duration: float, volume) -> None:
        """A kernel left for the CPE cluster: duration and DMA volume."""
        reg = self.registry
        base = task_name.split("@", 1)[0]
        reg.observe("kernel.seconds", duration)
        reg.observe(f"kernel.seconds.{base}", duration)
        self.bump(rank, "cpe_kernel_seconds", duration)
        if volume is not None:
            reg.inc("dma.get.bytes", volume.get_bytes)
            reg.inc("dma.put.bytes", volume.put_bytes)
            reg.inc("dma.descriptors", volume.descriptors)
            self.bump(rank, "dma_bytes", volume.get_bytes + volume.put_bytes)

    def on_ghost_send(self, rank: int, nbytes: int) -> None:
        """CommEngine sent one packed ghost slab."""
        reg = self.registry
        reg.inc("ghost.msgs.sent")
        reg.inc("ghost.bytes.sent", nbytes)
        self.bump(rank, "msgs_sent")
        self.bump(rank, "bytes_sent", nbytes)

    def on_ghost_unpack(self, rank: int, nbytes: int) -> None:
        """CommEngine unpacked one received ghost slab."""
        reg = self.registry
        reg.inc("ghost.msgs.recv")
        reg.inc("ghost.bytes.recv", nbytes)
        self.bump(rank, "msgs_recv")

    def on_wire_message(self, nbytes: int) -> None:
        """Fabric-level traffic (includes retransmitted/duplicated bytes)."""
        reg = self.registry
        reg.inc("net.messages")
        reg.inc("net.bytes", nbytes)

    def on_retransmit(self, source: int, nbytes: int) -> None:
        reg = self.registry
        reg.inc("net.retransmits")
        reg.inc("net.bytes", nbytes)


#: Named lifecycle events folded 1:1 into bucket keys and counters.
_EVENT_COUNTERS = {
    "local-copy": ("comm.local_copies", "local_copies"),
    "reduction": ("comm.reductions", "reductions"),
    "scrubbed": ("dw.scrubbed", "scrubbed"),
    "straggler": ("resilience.stragglers", "stragglers"),
    "kernel-timeout": ("resilience.kernel_timeouts", "kernel_timeouts"),
    "kernel-retry": ("resilience.kernel_retries", "kernel_retries"),
}


class TelemetrySubscriber:
    """Folds one rank's lifecycle events into the run's telemetry."""

    __slots__ = ("tele", "rank")

    def __init__(self, tele: RunTelemetry, rank: int):
        self.tele = tele
        self.rank = rank

    def __call__(self, ev: LifecycleEvent) -> None:
        tele, rank = self.tele, self.rank
        kind = ev.kind
        if kind == "transition":
            state, info = ev.state, ev.info
            if state is TaskState.DONE:
                tele.registry.inc("tasks.done")
                tele.bump(rank, "tasks_done")
            elif state is TaskState.RUNNING:
                backend = info.get("backend")
                if backend == "cpe":
                    key = "kernel_retries" if info.get("retry") else "kernels_offloaded"
                    tele.registry.inc(
                        "resilience.kernel_retries"
                        if info.get("retry")
                        else "kernels.offloaded"
                    )
                    tele.bump(rank, key)
                elif backend == "mpe":
                    tele.registry.inc("kernels.mpe")
                    tele.bump(rank, "kernels_mpe")
                elif backend == "mpe_fallback":
                    tele.registry.inc("resilience.mpe_fallbacks")
                    tele.bump(rank, "mpe_fallbacks")
            elif state is TaskState.READY and info.get("retry"):
                tele.registry.inc("resilience.kernel_retries")
                tele.bump(rank, "kernel_retries")
            elif state is TaskState.FAILED and info.get("cause") == "timeout":
                tele.registry.inc("resilience.kernel_timeouts")
                tele.bump(rank, "kernel_timeouts")
        elif kind == "step-begin":
            tele.begin_step(rank)
        elif kind == "flops":
            tele.registry.inc("flops.counted", ev.info["n"])
            tele.bump(rank, "flops", ev.info["n"])
        elif kind == "idle":
            tele.registry.inc("mpe.idle.seconds", ev.info["seconds"])
            tele.bump(rank, "idle_seconds", ev.info["seconds"])
        elif kind == "spin":
            tele.registry.inc("mpe.spin.seconds", ev.info["seconds"])
            tele.bump(rank, "spin_seconds", ev.info["seconds"])
        else:
            names = _EVENT_COUNTERS.get(kind)
            if names is not None:
                tele.registry.inc(names[0])
                tele.bump(rank, names[1])
