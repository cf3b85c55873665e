"""The request lifecycle of one serve run, shared by both serve drivers.

What happens to a request — breaker shed, admission, preemption, queueing,
expiry, batch fault, retry-or-fail, completion — and every metric, outcome
and request-lane span those steps emit is decided here, once.  The two
drivers in :mod:`repro.serving.server` report what happened through the
five transitions of :class:`_ServeSession` (``admit`` / ``expire`` /
``fail_batch`` / ``complete_batch`` / ``report``).  They share this
lifecycle, not the dispatch rule: which batch launches when is each
driver's own (see the module docstring of :mod:`repro.serving.server`);
only the wall driver calls ``expire`` so far.

Every transition takes one stamp per instant from the driver, on one
clock: the virtual clock, or wall seconds since the serve started.
Latencies, outcomes, the metrics timeline, spans and the circuit breaker
all read that stamp.

:func:`timed_run` is the one way a batch executes: the virtual driver, the
thread backend and every process worker run their batches through it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..engine.runner import run_partial_groups
from ..telemetry.trace import Trace, attach_tape_sink
from .batcher import DynamicBatcher
from .metrics import MetricsCollector
from .workload import Request


def timed_run(engine, groups: list[np.ndarray], emit=None):
    """Run partial-fill ``groups`` through ``engine``, timed.

    ``emit(name, args, t0, t1)``, when given and the engine runs a tape,
    receives each executed instruction with raw ``perf_counter`` stamps;
    the sink is detached before this returns.  Returns ``(codes per group,
    engine passes, start, elapsed)``, ``start`` on ``perf_counter``.
    """
    detach = (attach_tape_sink(engine, emit)
              if emit is not None and engine.tape is not None else None)
    try:
        start = time.perf_counter()
        outputs, executions = run_partial_groups(engine, groups)
        elapsed = time.perf_counter() - start
    finally:
        if detach is not None:
            detach()
    return [out.codes for out in outputs], executions, start, elapsed


@dataclass(frozen=True)
class ServedRequest:
    """Terminal outcome of one request: completed, shed, or failed.

    ``"failed"`` is the fault plane's terminal state: the request was
    admitted, its batch(es) faulted, and the retry budget (attempts or
    deadline) ran out — ``failure_reason`` names the last fault kind and
    ``retries`` counts the extra attempts that were spent.  Completed
    requests also carry ``retries`` (> 0 when a fault made them run more
    than once before succeeding).
    """

    request_id: int
    model: str
    status: str                          # "completed" | "shed" | "failed"
    latency_s: float | None = None
    codes: np.ndarray | None = None
    #: "queue_full" | "slo" | "breaker" at admission; "preempted" |
    #: "expired" from the queue
    shed_reason: str | None = None
    batch_index: int | None = None
    batch_fill: int | None = None
    worker_index: int | None = None      # dispatch worker that ran the batch
    priority: int = 0
    #: wall-clock offset (s from serve start) the request was offered at —
    #: set by paced real serving, ``None`` on the virtual clock and floods
    release_s: float | None = None
    #: extra executions spent on this request beyond the first attempt
    retries: int = 0
    #: fault kind that terminated a ``"failed"`` request
    failure_reason: str | None = None

    @property
    def completed(self) -> bool:
        return self.status == "completed"

    @property
    def failed(self) -> bool:
        return self.status == "failed"


@dataclass
class FleetReport:
    """Everything one serve run produced: outcomes, metrics, cache counters."""

    policy: str
    outcomes: list[ServedRequest]
    metrics: dict
    cache: dict
    cost_model_s: dict
    wall_time_s: float = 0.0
    workers: int = 1
    execution: str = "virtual"
    backend: str = "event-loop"          # "event-loop" | "thread" | "process"
    pacing: str = "virtual"              # "virtual" | "flood" | "open" | "closed"
    #: request-span trace when the run was served with telemetry enabled
    trace: Trace | None = None

    @property
    def fleet(self) -> dict:
        return self.metrics["fleet"]

    @property
    def faults(self) -> dict | None:
        """Fault-plane block (injection, retries, breaker, supervisor) when
        the run was served with any resilience feature active."""
        return self.metrics.get("faults")

    @property
    def completed(self) -> int:
        return self.fleet["completed"]

    @property
    def shed(self) -> int:
        return self.fleet["shed"]

    def latency_ms(self, percentile: str = "p99") -> float:
        return self.fleet["latency_ms"][percentile]

    def to_dict(self) -> dict:
        """JSON-serializable view (outcomes and trace elided — use
        :meth:`save_trace` for the trace)."""
        return {
            "policy": self.policy,
            "workers": self.workers,
            "execution": self.execution,
            "backend": self.backend,
            "pacing": self.pacing,
            "metrics": self.metrics,
            "cache": self.cache,
            "cost_model_s": self.cost_model_s,
            "wall_time_s": self.wall_time_s,
        }

    def save_trace(self, path) -> Path:
        """Write the run's Chrome ``trace_event`` JSON (Perfetto-loadable)."""
        if self.trace is None:
            raise ValueError(
                "this report carries no trace; serve with "
                "telemetry=TelemetryConfig(sample_rate=...) to record one")
        return self.trace.save(path)

    def prometheus(self, namespace: str = "repro") -> str:
        """Prometheus text exposition of the run's metrics."""
        from ..telemetry.export import prometheus_text
        return prometheus_text(self.metrics, namespace=namespace)


class _ServeSession:
    """Per-run lifecycle state and the five transitions that mutate it.

    Not thread-safe on its own: the wall-clock driver calls every
    transition under its scheduler lock (one acquisition per ingested
    request / per finished dispatch), the virtual driver is single-threaded.
    """

    def __init__(self, server, *, execution: str, backend: str, pacing: str,
                 tracer, telemetry, plan, retry, breaker, corrupted) -> None:
        self.wall_start = time.perf_counter()
        self.server = server
        self.admission, self.policy = server.admission, server.policy
        self.execution, self.backend, self.pacing = execution, backend, pacing
        self.tracer, self.telemetry = tracer, telemetry
        self.plan, self.retry, self.breaker = plan, retry, breaker
        self.corrupted = corrupted
        self.queues = {m: DynamicBatcher(m, self.policy) for m in server.fleet}
        self.metrics = MetricsCollector(server.fleet)
        self.outcomes: dict[int, ServedRequest] = {}
        #: sampled requests still in flight: request_id -> admission stamp
        #: (where the request's queue span starts)
        self.traced: dict[int, float] = {}
        #: request_id -> wall offset the pacer released it at; stays empty
        #: on the virtual clock and under flood pacing
        self.release: dict[int, float] = {}
        #: fault plane: executions per request, requests retried at least
        #: once, models' consecutive-failure streaks (drive retry backoff)
        self.attempts: dict[int, int] = {}
        self.retried_ids: set[int] = set()
        self.fail_streak = {m: 0 for m in server.fleet}
        self.observed_faults: dict[str, int] = {}
        #: launched policy batches so far, failed launches included
        self.batch_index = 0
        self._admission_before = self.admission.stats()

    def depth(self) -> int:
        """Requests queued across the fleet right now."""
        return sum(q.depth for q in self.queues.values())

    def note_fault(self, kind: str) -> None:
        self.observed_faults[kind] = self.observed_faults.get(kind, 0) + 1

    def _origin(self, req: Request) -> float:
        """Where a request's latency and retry age are measured from: its
        arrival on the virtual clock; on the wall its release stamp, or the
        serve start (0) for a flood, which is offered all at once."""
        if self.execution == "real":
            return self.release.get(req.request_id, 0.0)
        return req.arrival_s

    def _shed(self, req: Request, reason: str, now: float,
              span_start: float | None) -> None:
        """Terminal ``shed`` outcome at ``now``; ``span_start`` is ``None``
        for an unsampled request."""
        self.metrics.record_shed(req.model, reason, now=now)
        self.outcomes[req.request_id] = ServedRequest(
            request_id=req.request_id, model=req.model, status="shed",
            shed_reason=reason, priority=req.priority,
            release_s=self.release.get(req.request_id))
        if span_start is None:
            return
        lane = f"req-{req.request_id}"
        if reason in ("preempted", "expired"):   # sheds that spent time queued
            self.tracer.record("queue", "queue", span_start, now,
                               lane=lane, trace_id=req.request_id,
                               args={"outcome": reason})
        self.tracer.record("request", "request", span_start, now,
                           lane=lane, trace_id=req.request_id,
                           args={"status": "shed", "reason": reason,
                                 "model": req.model})

    # ------------------------------------------------------------------ #
    def admit(self, req: Request, now: float,
              earliest_start: float) -> list[int]:
        """One arrival at ``now``: breaker gate, admission decision,
        preemption, enqueue.

        ``earliest_start`` is the earliest a worker could start the request
        (the admission controller prices the wait until then).  Returns the
        ids that became terminal — the shed arrival or the victims it
        preempted — so a paced driver can signal its pacer after dropping
        the scheduler lock.
        """
        tracer = self.tracer
        done: list[int] = []
        self.metrics.record_arrival(req.model, req.arrival_s)
        sampled = tracer.enabled and tracer.sampled(req.request_id)
        if self.breaker is not None and not self.breaker.allow(req.model, now):
            # Open breaker: shed fast instead of queueing into a model
            # that keeps failing.
            self._shed(req, "breaker", now, now if sampled else None)
            done.append(req.request_id)
        else:
            decision = self.admission.consider(req, now, earliest_start,
                                               self.queues, self.policy)
            if sampled:
                tracer.record(
                    "admission", "admission", now, now,
                    lane=f"req-{req.request_id}", trace_id=req.request_id,
                    args={"admitted": decision.admitted,
                          "reason": decision.reason,
                          "predicted_ms": (decision.predicted_latency_s * 1e3
                                           if decision.predicted_latency_s
                                           is not None else None)})
            if decision.admitted:
                for victim in decision.evicted:
                    self.queues[victim.model].remove(victim)
                    self._shed(victim, "preempted", now,
                               self.traced.pop(victim.request_id, None))
                    done.append(victim.request_id)
                self.queues[req.model].push(req)
                if sampled:
                    self.traced[req.request_id] = now
            else:
                self._shed(req, decision.reason, now, now if sampled else None)
                done.append(req.request_id)
        self.metrics.record_queue_depth(now, self.depth())
        return done

    def expire(self, model: str, now: float, cost_s: float) -> list[int]:
        """Shed each head of ``model``'s queue that can no longer meet its
        deadline at ``now`` if a batch costing ``cost_s`` started now.

        Admission's SLO gate, applied again at dispatch: it runs only under
        ``slo_shed``, never expires a request without a deadline, and stops
        at the first head that can still make it.  Returns the shed ids.
        """
        expired: list[int] = []
        if not self.admission.policy.slo_shed:
            return expired
        queue = self.queues[model]
        while (req := queue.head) is not None and req.deadline_s is not None \
                and self._origin(req) + req.deadline_s < now + cost_s:
            queue.remove(req)
            self._shed(req, "expired", now,
                       self.traced.pop(req.request_id, None))
            expired.append(req.request_id)
        if expired:
            self.metrics.record_queue_depth(now, self.depth())
        return expired

    def fail_batch(self, worker: int, model: str, batch: list[Request],
                   kind: str, start: float,
                   end: float) -> tuple[int, float, list[int]]:
        """A batch launched at ``start`` faulted with ``kind`` on ``worker``;
        the failure was seen at ``end``.

        Every request spends one attempt; those within the retry budget
        requeue, the rest terminate ``failed``.  Returns ``(streak,
        backoff_s, failed_ids)``: the model's consecutive-failure count, how
        long the driver should hold the model back on its own clock, and
        the requests that became terminal.
        """
        retry, tracer = self.retry, self.tracer
        self.note_fault(kind)
        self.fail_streak[model] += 1
        streak = self.fail_streak[model]
        if self.breaker is not None:
            self.breaker.record(model, False, end)
        failed: list[int] = []
        for req in batch:
            n_attempts = self.attempts.get(req.request_id, 0) + 1
            self.attempts[req.request_id] = n_attempts
            if retry is not None and not retry.exhausted(
                    n_attempts, end - self._origin(req)):
                self.queues[model].push(req)
                self.metrics.record_retry(model)
                self.retried_ids.add(req.request_id)
                continue
            self.metrics.record_failed(model, kind, now=end)
            self.outcomes[req.request_id] = ServedRequest(
                request_id=req.request_id, model=model, status="failed",
                failure_reason=kind, retries=n_attempts - 1,
                priority=req.priority, worker_index=worker,
                release_s=self.release.get(req.request_id))
            failed.append(req.request_id)
            admitted = self.traced.pop(req.request_id, None)
            if admitted is not None:
                lane = f"req-{req.request_id}"
                tracer.record("queue", "queue", admitted, start, lane=lane,
                              trace_id=req.request_id, args={"model": model})
                tracer.record("request", "request", admitted, end, lane=lane,
                              trace_id=req.request_id,
                              args={"status": "failed", "reason": kind,
                                    "model": model})
        self.metrics.record_queue_depth(end, self.depth())
        self.batch_index += 1
        backoff = retry.attempt_backoff_s(streak) if retry is not None else 0.0
        return streak, backoff, failed

    def complete_batch(self, worker: int, model: str, batch: list[Request],
                       codes: np.ndarray, compute_s: float, start: float,
                       end: float) -> None:
        """One policy batch launched at ``start`` finished at ``end`` on
        ``worker`` with per-request ``codes``.

        ``compute_s`` is the engine time the driver attributes to this
        batch.
        """
        tracer = self.tracer
        self.fail_streak[model] = 0
        if self.breaker is not None:
            self.breaker.record(model, True, end)
        batch_index, fill = self.batch_index, len(batch)
        for offset, req in enumerate(batch):
            latency = end - self._origin(req)
            self.metrics.record_completion(model, latency, req.deadline_s,
                                           now=end)
            self.outcomes[req.request_id] = ServedRequest(
                request_id=req.request_id, model=model, status="completed",
                latency_s=latency, codes=codes[offset].copy(),
                batch_index=batch_index, batch_fill=fill, worker_index=worker,
                priority=req.priority,
                release_s=self.release.get(req.request_id),
                retries=self.attempts.get(req.request_id, 0))
            admitted = self.traced.pop(req.request_id, None)
            if admitted is not None:
                lane = f"req-{req.request_id}"
                tracer.record("queue", "queue", admitted, start, lane=lane,
                              trace_id=req.request_id, args={"model": model})
                tracer.record("execute", "execute", start, end,
                              lane=lane, trace_id=req.request_id,
                              args={"model": model, "fill": fill,
                                    "batch_index": batch_index,
                                    "worker": worker,
                                    "backend": self.backend})
                tracer.record("request", "request", admitted, end, lane=lane,
                              trace_id=req.request_id,
                              args={"status": "completed", "model": model,
                                    "latency_ms": latency * 1e3})
        # Padding is relative to the engine's bound batch shape: even a
        # "full" policy batch below batch_size pays padded compute rows.
        self.metrics.record_batch(model, fill, self.server.batch_size,
                                  compute_s, now=end)
        self.metrics.record_queue_depth(end, self.depth())
        self.batch_index += 1

    def report(self, makespan_s: float, *, supervisor: dict,
               injected: dict | None, degraded_models=(),
               dead_workers=()) -> FleetReport:
        """Reduce the run into its :class:`FleetReport`.

        ``supervisor`` / ``degraded_models`` / ``dead_workers`` are the
        driver's own recovery bookkeeping (modeled on the virtual clock,
        measured by the process backend); ``injected`` is the injector's
        tally, ``None`` without a fault plan.
        """
        server, telemetry = self.server, self.telemetry
        plan, retry, breaker = self.plan, self.retry, self.breaker
        report = self.metrics.report(
            makespan_s=makespan_s, workers=server.workers,
            execution=self.execution,
            snapshot_interval_s=(telemetry.snapshot_interval_s
                                 if telemetry is not None else None))
        admission_after = self.admission.stats()
        report["admission"] = {
            key: admission_after[key] - self._admission_before[key]
            for key in admission_after}
        for model in server.fleet:
            report["per_model"][model]["queue"] = self.queues[model].stats()
        if plan is not None or retry is not None or breaker is not None:
            report["faults"] = {
                "plan": plan.to_dict() if plan is not None else None,
                "injected": injected,
                "observed": dict(self.observed_faults),
                "retried_requests": len(self.retried_ids),
                "retry_policy": retry.to_dict() if retry is not None else None,
                "breaker": breaker.snapshot() if breaker is not None else None,
                "supervisor": supervisor,
                "degraded_models": sorted(degraded_models),
                "dead_workers": sorted(dead_workers),
                "artifacts_corrupted": dict(self.corrupted),
            }
        trace = self.tracer.finish({
            "execution": self.execution, "backend": self.backend,
            "pacing": self.pacing, "workers": server.workers,
            "sample_rate": telemetry.sample_rate if telemetry else 0.0})
        return FleetReport(
            policy=self.policy.describe(),
            outcomes=[self.outcomes[rid] for rid in sorted(self.outcomes)],
            metrics=report,
            cache=server.cache.stats(),
            cost_model_s=server.cost_model.to_dict(),
            wall_time_s=time.perf_counter() - self.wall_start,
            workers=server.workers,
            execution=self.execution,
            backend=self.backend,
            pacing=self.pacing,
            trace=trace,
        )
