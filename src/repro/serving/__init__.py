"""Multi-model serving layer over the integer inference engine.

The TQT paper motivates integer-only inference by what deployment hardware
runs; this package supplies the layer *above* the engine that deployment
actually needs: a fleet server that routes requests by model name to
per-model queues, a dynamic batcher (max-batch / max-wait timeout policy),
a bounded LRU plan cache with compile-on-demand (through
``repro.deploy.compile``), recompile accounting and an optional disk-backed
artifact tier, multi-worker dispatch (``workers=N`` overlaps different
models' batches), SLO-aware admission control backed by an EWMA cost model,
workload generators (Poisson, bursty, diurnal, heavy-tailed) with open- and
closed-loop pacers, priority-class admission (lowest tier preempted first),
a multiprocess fleet backend (``backend="process"`` — per-process tape
engines behind shared-memory arenas) and first-class serving metrics.  The
full-batch policy (``BatchingPolicy.full_batch``) on the virtual clock is
plain fixed-batch coalescing of a request stream.  Request-span
tracing rides along: serve with ``telemetry=TelemetryConfig(sample_rate=...)``
(re-exported from :mod:`repro.telemetry`) and the report carries a
Chrome-trace-exportable :class:`~repro.telemetry.Trace`.
"""

from ..faults import (
    BreakerPolicy,
    CircuitBreaker,
    FaultError,
    FaultEvent,
    FaultPlan,
    RetryPolicy,
    WorkerCrashed,
    WorkerTimeout,
)
from ..telemetry.trace import TelemetryConfig
from .admission import AdmissionController, AdmissionDecision, AdmissionPolicy, EwmaCostModel
from .batcher import BatchingPolicy, DynamicBatcher
from .cache import PlanCache
from .metrics import MetricsCollector, ModelStats, percentiles_ms
from .procfleet import ProcessFleetBackend
from .server import FleetReport, FleetServer, ServedRequest
from .workload import (
    SCENARIOS,
    ClosedLoopPacer,
    OpenLoopPacer,
    Request,
    Scenario,
    bursty_arrivals,
    diurnal_arrivals,
    fleet_input_shapes,
    generate_requests,
    heavy_tail_arrivals,
    poisson_arrivals,
)

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionPolicy",
    "EwmaCostModel",
    "BatchingPolicy",
    "DynamicBatcher",
    "PlanCache",
    "MetricsCollector",
    "ModelStats",
    "percentiles_ms",
    "ProcessFleetBackend",
    "FleetReport",
    "FleetServer",
    "ServedRequest",
    "TelemetryConfig",
    "BreakerPolicy",
    "CircuitBreaker",
    "FaultError",
    "FaultEvent",
    "FaultPlan",
    "RetryPolicy",
    "WorkerCrashed",
    "WorkerTimeout",
    "SCENARIOS",
    "ClosedLoopPacer",
    "OpenLoopPacer",
    "Request",
    "Scenario",
    "bursty_arrivals",
    "diurnal_arrivals",
    "fleet_input_shapes",
    "generate_requests",
    "heavy_tail_arrivals",
    "poisson_arrivals",
]
