"""Dynamic batching: per-model request queues with a max-batch/max-wait policy.

Coalescing *fixed full batches* makes a request wait until
``batch_size - 1`` more requests show up, which is catastrophic for tail
latency under sparse traffic.  A :class:`DynamicBatcher` instead
launches a batch as soon as either (a) ``max_batch`` requests are queued, or
(b) the oldest queued request has waited ``max_wait_s`` — the timeout policy
every production serving stack (Triton, TF-Serving, Clipper) converges on.
``max_wait_s=None`` recovers full-batch coalescing (wait for a full batch,
flush leftovers only once the stream has drained), so both policies run
through the same scheduler and can be compared head-to-head.

The batcher is a *scheduling* object on the fleet's virtual clock: it
answers "when is this queue ready to launch?" and hands out batches; the
:class:`~repro.serving.server.FleetServer` owns clock advancement and
execution.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .workload import Request

__all__ = ["BatchingPolicy", "DynamicBatcher"]


@dataclass(frozen=True)
class BatchingPolicy:
    """When to close a batch: size trigger always, timeout trigger optionally.

    ``max_wait_s=None`` means *full-batch coalescing*: only a full batch (or
    end-of-stream flush) launches.  A finite ``max_wait_s`` bounds how long
    the oldest queued request may age before its (possibly partial) batch
    launches.
    """

    max_batch: int
    max_wait_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_s is not None and self.max_wait_s < 0:
            raise ValueError(f"max_wait_s must be >= 0, got {self.max_wait_s}")

    @classmethod
    def full_batch(cls, max_batch: int) -> "BatchingPolicy":
        return cls(max_batch=max_batch, max_wait_s=None)

    @classmethod
    def dynamic(cls, max_batch: int, max_wait_s: float) -> "BatchingPolicy":
        if max_wait_s is None:
            raise ValueError("dynamic policy requires a finite max_wait_s")
        return cls(max_batch=max_batch, max_wait_s=max_wait_s)

    @property
    def kind(self) -> str:
        return "full_batch" if self.max_wait_s is None else "dynamic"

    def describe(self) -> str:
        if self.max_wait_s is None:
            return f"full_batch(max_batch={self.max_batch})"
        return f"dynamic(max_batch={self.max_batch}, max_wait={self.max_wait_s * 1e3:.1f}ms)"


class DynamicBatcher:
    """FIFO request queue for one model, scheduled by a :class:`BatchingPolicy`."""

    def __init__(self, model: str, policy: BatchingPolicy) -> None:
        self.model = model
        self.policy = policy
        self._queue: deque[Request] = deque()
        # Lifetime observability tallies (surfaced per model in reports).
        self.pushes = 0
        self.popped_batches = 0
        self.max_depth = 0

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def depth(self) -> int:
        return len(self._queue)

    @property
    def head_arrival_s(self) -> float:
        """Arrival time of the oldest queued request (inf when empty)."""
        return self._queue[0].arrival_s if self._queue else math.inf

    @property
    def head(self) -> Request | None:
        """The oldest queued request (``None`` when empty)."""
        return self._queue[0] if self._queue else None

    def push(self, request: Request) -> None:
        if request.model != self.model:
            raise ValueError(f"request for {request.model!r} routed to the "
                             f"{self.model!r} queue")
        self._queue.append(request)
        self.pushes += 1
        if len(self._queue) > self.max_depth:
            self.max_depth = len(self._queue)

    def ready_time(self, pending_arrivals: int) -> float:
        """Earliest virtual time this queue can launch a batch.

        ``pending_arrivals`` is how many future requests for this model have
        not yet arrived; a full-batch policy keeps waiting while more are
        coming, but flushes a partial batch once the stream has drained
        (the final partial batch of fixed-batch coalescing).  Returns
        ``math.inf`` when nothing can launch yet.
        """
        if not self._queue:
            return math.inf
        policy = self.policy
        if len(self._queue) >= policy.max_batch:
            # Ready the moment the batch-filling request arrived.
            return self._queue[policy.max_batch - 1].arrival_s
        if policy.max_wait_s is not None:
            return self._queue[0].arrival_s + policy.max_wait_s
        if pending_arrivals == 0:
            return self._queue[0].arrival_s  # end-of-stream flush
        return math.inf

    def pop_batch(self) -> list[Request]:
        """Dequeue up to ``max_batch`` requests in arrival order."""
        take = min(self.policy.max_batch, len(self._queue))
        self.popped_batches += 1
        return [self._queue.popleft() for _ in range(take)]

    def stats(self) -> dict[str, int]:
        """Lifetime queue tallies: pushes, batches popped, peak depth."""
        return {"pushes": self.pushes, "popped_batches": self.popped_batches,
                "max_depth": self.max_depth}

    # ------------------------------------------------------------------ #
    # Priority preemption (see AdmissionController)
    # ------------------------------------------------------------------ #
    def shed_candidate(self, below_priority: int,
                       exclude: Sequence[Request] = ()) -> Request | None:
        """The queued request to preempt for an arrival of ``below_priority``.

        Lowest tier first; within a tier the *youngest* request goes (it has
        waited least, so evicting it wastes the least queueing investment).
        Only strictly lower priorities are candidates — equal-priority
        requests are never preempted, so FIFO fairness holds within a class.
        """
        candidate: Request | None = None
        excluded = {id(req) for req in exclude}
        for req in self._queue:
            if req.priority >= below_priority or id(req) in excluded:
                continue
            if (candidate is None or req.priority < candidate.priority
                    or (req.priority == candidate.priority
                        and req.arrival_s >= candidate.arrival_s)):
                candidate = req
        return candidate

    def remove(self, request: Request) -> None:
        """Drop one queued request (a preemption victim, or an expired head
        — O(1) at index 0) by identity."""
        for index, queued in enumerate(self._queue):
            if queued is request:
                del self._queue[index]
                return
        raise ValueError(f"request {request.request_id} is not queued on "
                         f"the {self.model!r} queue")
