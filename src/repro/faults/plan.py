"""Deterministic fault injection: typed errors, fault events, seeded plans.

A serving system's failure behavior is part of its contract, so it must be
*testable* the way throughput is: reproducibly.  This module defines the
fault plane the fleet server and the process backend share:

* a typed error hierarchy (:class:`FaultError` and friends) so callers can
  distinguish "the worker process died" from "the task raised" from "the
  recv deadline fired" and supervise each differently;
* :class:`FaultEvent` / :class:`FaultPlan` — a declarative, picklable
  schedule of induced failures addressed in **worker-task coordinates**
  (worker *w*'s *k*-th executed task), which makes a chaos run exactly
  reproducible on both the virtual and the wall clock and on both the
  thread and the process backend: the coordinates depend only on dispatch
  order, never on timing;
* :class:`FaultInjector` — the runtime consumer of a plan.  Every task
  fault is drawn once, in the serving parent, on every backend: the
  virtual loop models it, the thread backend acts it out in-process, and
  the process backend hands a drawn ``worker_crash`` / ``task_hang`` to
  the worker process, which only acts out what it is handed.

Fault kinds:

``worker_crash``
    The worker process dies mid-task (``os._exit``); the thread backend
    raises :class:`WorkerCrashed` in-process instead, and the virtual clock
    fails the batch as ``worker_crash`` and models the respawn.
``task_hang``
    The task stalls for ``duration_s`` — long enough to trip the parent's
    recv deadline on the process backend (:class:`WorkerTimeout`).
``task_error``
    The task fails with an exception instead of producing codes.
``slow_task``
    The task completes correctly but ``duration_s`` late (gray failure:
    outputs stay bit-identical, only latency suffers).
``artifact_corrupt``
    A disk-tier ``.rpa`` artifact is corrupted before serving starts,
    exercising the plan cache's quarantine + recompile path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from threading import Lock

import numpy as np

__all__ = [
    "FAULT_KINDS",
    "FaultError",
    "InjectedFault",
    "WorkerCrashed",
    "WorkerTimeout",
    "TaskFailed",
    "RespawnExhausted",
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
]

FAULT_KINDS = ("worker_crash", "task_hang", "task_error", "slow_task",
               "artifact_corrupt")

#: fault kinds matched against executed tasks by the injector (artifact
#: corruption happens once, before serving, outside task coordinates)
_TASK_KINDS = ("worker_crash", "task_hang", "task_error", "slow_task")


# ---------------------------------------------------------------------- #
# Typed errors
# ---------------------------------------------------------------------- #
class FaultError(RuntimeError):
    """Base class for fleet fault conditions the supervisor can recover."""

    #: canonical fault kind for metrics/trace labeling
    kind = "fault"


class WorkerCrashed(FaultError):
    """A worker process died (its ``Process`` is no longer alive) mid-task."""

    kind = "worker_crash"


class WorkerTimeout(FaultError):
    """No result arrived within the per-task recv deadline (hung task)."""

    kind = "task_hang"


class TaskFailed(FaultError):
    """The worker stayed alive but replied with a task-level error."""

    kind = "task_error"


class InjectedFault(FaultError):
    """A planned fault fired on an in-process execution path."""

    def __init__(self, event: "FaultEvent") -> None:
        super().__init__(f"injected fault {event.kind!r} "
                         f"(worker={event.worker}, task={event.task_index}, "
                         f"model={event.model})")
        self.event = event
        self.kind = event.kind


class RespawnExhausted(FaultError):
    """A worker kept dying past its bounded respawn budget."""

    kind = "respawn_exhausted"


# ---------------------------------------------------------------------- #
# Plans
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class FaultEvent:
    """One induced failure, addressed in worker-task coordinates.

    ``worker=None`` matches any worker; ``model=None`` matches any model.
    ``task_index`` is the matching worker's k-th *executed* task (0-based,
    counted per worker across its whole lifetime, respawns included); with
    ``task_index=None`` the event fires on the next matching task,
    ``count`` times in total — the "poison this model" spelling that feeds
    circuit-breaker tests.  ``duration_s`` is the stall for ``task_hang`` /
    ``slow_task`` events and ignored otherwise.
    """

    kind: str
    worker: int | None = None
    task_index: int | None = None
    model: str | None = None
    duration_s: float = 0.05
    count: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"available: {list(FAULT_KINDS)}")
        if self.duration_s < 0:
            raise ValueError(f"duration_s must be >= 0, got {self.duration_s}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.kind == "artifact_corrupt" and self.model is None:
            raise ValueError("artifact_corrupt events must name a model")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "worker": self.worker,
                "task_index": self.task_index, "model": self.model,
                "duration_s": self.duration_s, "count": self.count}


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible schedule of :class:`FaultEvent` s (plus its seed).

    Plans are plain frozen dataclasses: they compare and pickle by value.
    ``seed`` is carried for reporting; :meth:`seeded` derives the whole
    schedule from it.
    """

    events: tuple[FaultEvent, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            if not isinstance(event, FaultEvent):
                raise TypeError(f"events must be FaultEvent instances, "
                                f"got {type(event).__name__}")

    @classmethod
    def seeded(cls, seed: int, *, workers: int, horizon_tasks: int = 16,
               crash_rate: float = 0.0, hang_rate: float = 0.0,
               error_rate: float = 0.0, slow_rate: float = 0.0,
               hang_s: float = 30.0, slow_s: float = 0.01) -> "FaultPlan":
        """Draw a deterministic schedule over a worker-task grid.

        Each of ``workers * horizon_tasks`` (worker, task) cells
        independently draws one fault with the given per-kind rates
        (crash wins over hang over error over slow when rates overlap).
        The same seed always yields the same plan.
        """
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if horizon_tasks < 1:
            raise ValueError(f"horizon_tasks must be >= 1, got {horizon_tasks}")
        rng = np.random.default_rng(seed)
        events: list[FaultEvent] = []
        for worker in range(workers):
            for task in range(horizon_tasks):
                draw = float(rng.random())
                if draw < crash_rate:
                    events.append(FaultEvent("worker_crash", worker=worker,
                                             task_index=task))
                elif draw < crash_rate + hang_rate:
                    events.append(FaultEvent("task_hang", worker=worker,
                                             task_index=task,
                                             duration_s=hang_s))
                elif draw < crash_rate + hang_rate + error_rate:
                    events.append(FaultEvent("task_error", worker=worker,
                                             task_index=task))
                elif draw < crash_rate + hang_rate + error_rate + slow_rate:
                    events.append(FaultEvent("slow_task", worker=worker,
                                             task_index=task,
                                             duration_s=slow_s))
        return cls(events=tuple(events), seed=seed)

    def injector(self) -> "FaultInjector":
        """Runtime consumer of this plan (see :class:`FaultInjector`)."""
        return FaultInjector(self)

    @property
    def artifact_events(self) -> tuple[FaultEvent, ...]:
        return tuple(e for e in self.events if e.kind == "artifact_corrupt")

    def to_dict(self) -> dict:
        return {"seed": self.seed,
                "events": [e.to_dict() for e in self.events]}


@dataclass
class _Slot:
    event: FaultEvent
    remaining: int = field(default=0)

    def __post_init__(self) -> None:
        self.remaining = self.event.count


class FaultInjector:
    """Thread-safe runtime matcher: consumes plan events against tasks.

    ``poll(worker, model)`` is called once per executed task (before
    execution); it advances the worker's task counter and returns the
    matching :class:`FaultEvent` to apply, or ``None``.  Events with an
    explicit ``task_index`` fire exactly at that ordinal; events without
    one fire on the next matching task, ``count`` times per serve.  A
    worker slot's counter runs across respawns of its process, so a
    consumed event never re-fires.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._slots = [_Slot(e) for e in plan.events if e.kind in _TASK_KINDS]
        self._counts: dict[int, int] = {}
        self._lock = Lock()
        self.injected: dict[str, int] = {}
        self.polled = 0

    def poll(self, worker: int, model: str | None = None) -> FaultEvent | None:
        """Advance ``worker``'s task counter; return the event to apply."""
        with self._lock:
            index = self._counts.get(worker, 0)
            self._counts[worker] = index + 1
            self.polled += 1
            for slot in self._slots:
                event = slot.event
                if slot.remaining <= 0:
                    continue
                if event.worker is not None and event.worker != worker:
                    continue
                if (event.model is not None and model is not None
                        and event.model != model):
                    continue
                if event.task_index is not None and event.task_index != index:
                    continue
                slot.remaining -= 1
                self.injected[event.kind] = self.injected.get(event.kind, 0) + 1
                return event
            return None

    def stats(self) -> dict:
        """JSON-serializable injection counters for the serving report."""
        with self._lock:
            pending = sum(s.remaining for s in self._slots)
            return {"seed": self.plan.seed,
                    "events": len(self.plan.events),
                    "polled": self.polled,
                    "injected": dict(self.injected),
                    "pending": pending}
