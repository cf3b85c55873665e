"""Admission control: bounded queues and SLO-aware shedding.

An overloaded server that queues everything converts overload into unbounded
latency; shedding at admission converts it into bounded latency plus an
explicit, measurable reject rate.  Two gates run at arrival time:

* **bounded queue** — reject when the target model's queue is already at
  ``max_queue_depth`` (backpressure);
* **SLO shed** — reject when the *predicted* completion time of the request
  would bust its deadline.  The prediction sums the worker's residual busy
  time, the backlog of queued batches priced by a per-model **EWMA cost
  model** of measured batch compute time, the policy's batch-formation
  timeout, and the request's own batch cost.

Both gates are **priority-aware** (``AdmissionPolicy.priority_shed``): when a
gate would shed an arrival, queued requests of strictly *lower* priority on
the same model are preempted first (lowest tier, youngest first) — shedding
under pressure always lands on the lowest tier present, and a batch of equal
priorities degrades to plain FIFO admission.  Preemption victims surface on
:attr:`AdmissionDecision.evicted`; the server records them as shed with
reason ``"preempted"``.

The prediction is deliberately a cheap heuristic (it prices partial batches
at full-batch EWMA cost and assumes FIFO service); its job is to keep the
shed decision monotone in load, not to be a simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .batcher import BatchingPolicy, DynamicBatcher
from .workload import Request

__all__ = ["EwmaCostModel", "AdmissionPolicy", "AdmissionDecision", "AdmissionController"]


class EwmaCostModel:
    """Exponentially weighted moving averages of per-batch compute seconds.

    One EWMA per (model, bucket).  An optimized engine runs a partial batch
    on the smallest power-of-two bucket that holds it, so batch cost
    follows the fill: :meth:`observe` files a measurement under its fill's
    bucket (the smallest power of two >= ``fill``; ``fill=None`` is a full
    batch).  :meth:`estimate` and :meth:`to_dict` report the full-batch
    entries, which admission prices every batch ahead at — so cheap
    partial fills never drag the full-batch estimate down.
    """

    def __init__(self, alpha: float = 0.3, default_s: float = 5e-3) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.default_s = default_s
        #: (model, bucket) -> EWMA seconds; bucket ``None`` is the full batch
        self._estimates: dict[tuple[str, int | None], float] = {}

    def prime(self, model: str, seconds: float) -> None:
        """Seed the full-batch estimate from a warmup measurement."""
        self._estimates[(model, None)] = float(seconds)

    def observe(self, model: str, seconds: float, fill: int | None = None) -> None:
        key = (model, None if fill is None else 1 << (int(fill) - 1).bit_length())
        prev = self._estimates.get(key)
        if prev is None:
            self._estimates[key] = float(seconds)
        else:
            self._estimates[key] = self.alpha * float(seconds) + (1.0 - self.alpha) * prev

    def estimate(self, model: str) -> float:
        """Current full-batch cost estimate (``default_s`` before any data)."""
        return self._estimates.get((model, None), self.default_s)

    def to_dict(self) -> dict:
        return dict(sorted((model, est) for (model, bucket), est
                           in self._estimates.items() if bucket is None))


@dataclass(frozen=True)
class AdmissionPolicy:
    """Knobs for the admission gates; ``None`` depth disables backpressure."""

    max_queue_depth: int | None = 128
    slo_shed: bool = True
    #: preempt queued strictly-lower-priority requests before shedding an
    #: arrival (a no-op while every request carries the same priority)
    priority_shed: bool = True

    def __post_init__(self) -> None:
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError(f"max_queue_depth must be >= 1, got {self.max_queue_depth}")


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission check."""

    admitted: bool
    reason: str | None = None           # "queue_full" | "slo" when shed
    predicted_latency_s: float | None = None
    #: queued lower-priority requests preempted to make room; the caller
    #: must remove them from their queue and record them as shed
    evicted: tuple[Request, ...] = ()


class AdmissionController:
    """Applies an :class:`AdmissionPolicy` using the EWMA cost model.

    Decision tallies accumulate on :attr:`counters` across the
    controller's lifetime (Prometheus-counter semantics); the server
    reports per-run deltas by snapshotting :meth:`stats` around a serve.
    """

    def __init__(self, policy: AdmissionPolicy, cost_model: EwmaCostModel) -> None:
        self.policy = policy
        self.cost_model = cost_model
        self.counters = {"considered": 0, "admitted": 0, "shed_queue_full": 0,
                         "shed_slo": 0, "preempted": 0}

    def stats(self) -> dict[str, int]:
        """Cumulative decision counts (copy; safe to mutate)."""
        return dict(self.counters)

    def predicted_latency_s(self, request: Request, now: float, worker_free: float,
                            queues: dict[str, DynamicBatcher],
                            batching: BatchingPolicy,
                            depth_adjust: dict[str, int] | None = None) -> float:
        """Predicted completion latency if the request were admitted now.

        ``depth_adjust`` subtracts hypothetically evicted requests from a
        model's queue depth, so preemption can re-price the backlog without
        mutating the queue.
        """
        residual = max(0.0, worker_free - now)
        backlog = 0.0
        for model, queue in queues.items():
            depth = queue.depth - (depth_adjust or {}).get(model, 0)
            if depth > 0:
                batches_ahead = math.ceil(depth / batching.max_batch)
                backlog += batches_ahead * self.cost_model.estimate(model)
        formation = batching.max_wait_s if batching.max_wait_s is not None else 0.0
        return residual + backlog + formation + self.cost_model.estimate(request.model)

    def consider(self, request: Request, now: float, worker_free: float,
                 queues: dict[str, DynamicBatcher],
                 batching: BatchingPolicy) -> AdmissionDecision:
        decision = self._consider(request, now, worker_free, queues, batching)
        self.counters["considered"] += 1
        if decision.admitted:
            self.counters["admitted"] += 1
            self.counters["preempted"] += len(decision.evicted)
        else:
            self.counters[f"shed_{decision.reason}"] += 1
        return decision

    def _consider(self, request: Request, now: float, worker_free: float,
                  queues: dict[str, DynamicBatcher],
                  batching: BatchingPolicy) -> AdmissionDecision:
        policy = self.policy
        queue = queues[request.model]
        evicted: list[Request] = []

        def depth() -> int:
            return queue.depth - len(evicted)

        def preempt_one() -> bool:
            if not policy.priority_shed:
                return False
            victim = queue.shed_candidate(request.priority, exclude=evicted)
            if victim is None:
                return False
            evicted.append(victim)
            return True

        if policy.max_queue_depth is not None and depth() >= policy.max_queue_depth:
            if not preempt_one() or depth() >= policy.max_queue_depth:
                return AdmissionDecision(False, reason="queue_full")
        if policy.slo_shed and request.deadline_s is not None:
            while True:
                predicted = self.predicted_latency_s(
                    request, now, worker_free, queues, batching,
                    depth_adjust={request.model: len(evicted)})
                if predicted <= request.deadline_s:
                    return AdmissionDecision(True, predicted_latency_s=predicted,
                                             evicted=tuple(evicted))
                if not preempt_one():
                    # Shedding the arrival itself: no preemption happens, so
                    # the queue is left exactly as found.
                    return AdmissionDecision(False, reason="slo",
                                             predicted_latency_s=predicted)
        return AdmissionDecision(True, evicted=tuple(evicted))
