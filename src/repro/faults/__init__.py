"""Deterministic fault injection and resilience policies for the fleet.

The fault plane has three layers, threaded through the serving stack:

* **Injection** (:class:`FaultPlan` / :class:`FaultInjector`): a seeded,
  picklable schedule of ``worker_crash`` / ``task_hang`` / ``task_error`` /
  ``slow_task`` / ``artifact_corrupt`` events addressed in worker-task
  coordinates and drawn once, in the serving parent, so a chaos run fires
  the same faults on both clocks and on the thread and process backends.
* **Supervision** (:mod:`repro.serving.procfleet`): per-task recv
  deadlines, ``Process.is_alive()`` liveness checks, typed
  :class:`WorkerCrashed` / :class:`WorkerTimeout` errors, and bounded
  worker respawn with exponential backoff.
* **Resilience policy** (:class:`RetryPolicy`, :class:`CircuitBreaker`):
  request retries with attempt/deadline budgets, per-model rolling-window
  circuit breakers shedding fast at admission, and graceful degradation
  from the process to the thread backend for persistently failing models.

Wire it up with ``ServeConfig(faults=..., retry=..., breaker=...)`` or the
same keyword arguments on :class:`repro.serving.FleetServer`.
"""

from .plan import (
    FAULT_KINDS,
    FaultError,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    RespawnExhausted,
    TaskFailed,
    WorkerCrashed,
    WorkerTimeout,
)
from .policy import BreakerPolicy, CircuitBreaker, RetryPolicy

__all__ = [
    "FAULT_KINDS",
    "FaultError",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "InjectedFault",
    "RespawnExhausted",
    "TaskFailed",
    "WorkerCrashed",
    "WorkerTimeout",
    "BreakerPolicy",
    "CircuitBreaker",
    "RetryPolicy",
]
