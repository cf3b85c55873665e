"""Multi-model fleet server: one request lifecycle, driven on two clocks.

:class:`FleetServer` serves a stream of :class:`~repro.serving.workload.Request`
objects against a fleet of registry models.  Per-model request queues are
scheduled by a :class:`~repro.serving.batcher.BatchingPolicy`, engines come
from a bounded :class:`~repro.serving.cache.PlanCache` (compile-on-demand
through :func:`repro.deploy.compile`, LRU eviction, optional disk-backed
artifact tier), and arrivals pass through
:class:`~repro.serving.admission.AdmissionController` before queueing.

The request lifecycle (shed, admit, preempt, queue, expire, fail-or-retry,
complete, with the metrics, outcomes and request spans of each step) lives
once, in the per-run :class:`~repro.serving._session._ServeSession`.  This
module holds the two *drivers* that feed it.  Each stamps every transition
on its own single clock, and each has its own dispatch rule:

* :meth:`FleetServer._serve_virtual` (``execution="virtual"``, the default)
  is a discrete-event scheduler that interleaves two event kinds in time
  order: request arrivals, and batch launches.  A queue is ready once it
  holds a full batch or its head has waited ``max_wait_s``; the earliest
  ready queue launches on the earliest free worker, ties going to the
  oldest queued request, then the model name.  Arrivals at or before a
  launch instant are ingested first so they can join the batch.  A batch
  advances the clock by its **measured** compute time, or by a
  caller-supplied ``compute_time_fn(model, fill) -> seconds`` for
  deterministic simulation — the engine still executes for real so
  outputs stay bit-exact.
* :meth:`FleetServer._serve_real` (``execution="real"``) runs the dispatch
  workers as threads on the wall clock — over in-process tape engines
  (``backend="thread"``) or proxying to worker processes
  (``backend="process"``, see :mod:`repro.serving.procfleet`) — and reports
  measured throughput and latency.  A worker never waits for a batch to
  form: it first sheds every idle queue's heads that can no longer meet
  their deadline (reason ``"expired"``), then claims the deepest idle
  queue and packs several policy batches into one engine pass when the
  backlog allows (megabatching).  It owns the scheduler lock, supervision
  and the pacers of :mod:`repro.serving.workload`.

So the drivers share the lifecycle, not the dispatch rule.  ``max_wait_s``
reaches the wall driver only as the ``formation`` term of
:meth:`~repro.serving.admission.AdmissionController.predicted_latency_s`,
a wait it never pays.  Expiry is admission's SLO gate applied again at
dispatch, so it runs only under ``AdmissionPolicy.slo_shed``; the virtual
driver runs every request it admitted.

One concurrency knob: ``workers=N`` dispatch workers.  Batches for
*different models* launch concurrently (each model still serializes on its
own engine); with one worker the server degrades to the strict
single-worker serialization where batching policy and admission control
matter most.
"""

from __future__ import annotations

import math
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ..deploy import compile as deploy_compile
from ..deploy.artifact import config_key
from ..deploy.config import CompileConfig
from ..faults import (
    BreakerPolicy,
    CircuitBreaker,
    FaultError,
    FaultPlan,
    InjectedFault,
    RetryPolicy,
    WorkerCrashed,
    WorkerTimeout,
)
from ..models.registry import MODEL_REGISTRY, available_models
from ..telemetry.trace import NULL_TRACER, TelemetryConfig, Tracer
from ._session import FleetReport, ServedRequest, _ServeSession, timed_run
from .admission import AdmissionController, AdmissionPolicy, EwmaCostModel
from .batcher import BatchingPolicy
from .cache import PlanCache
from .workload import ClosedLoopPacer, OpenLoopPacer, Request, fleet_input_shapes

__all__ = ["ServedRequest", "FleetReport", "FleetServer"]

#: modeled virtual-clock cost of *detecting* a crash or task error (a hang
#: instead costs the recv deadline); keeps chaos makespans deterministic
_VIRTUAL_FAULT_DETECT_S = 1e-3

_FAULT_PLANE_TYPES = {"telemetry": TelemetryConfig, "faults": FaultPlan,
                      "retry": RetryPolicy, "breaker": BreakerPolicy}


def _tape_spans(tracer, telemetry, worker_index: int, wall_origin: float,
                base: float):
    """The :func:`timed_run` ``emit`` that records tape instructions as spans
    on the worker's tape lane.  Instructions are stamped on the wall clock;
    a stamp ``t`` lands at ``base + (t - wall_origin)`` on the trace clock.
    ``None`` when tape spans are off."""
    if telemetry is None or not telemetry.tape_spans:
        return None
    lane = f"worker-{worker_index}-tape"

    def emit(name, args, t0, t1):
        tracer.record(name, "tape", base + (t0 - wall_origin),
                      base + (t1 - wall_origin), lane=lane, args=args)

    return emit


def _check_fault_plane(**values) -> None:
    """Type-check ``telemetry`` / ``faults`` / ``retry`` / ``breaker``
    wherever the server accepts them (constructor and per-run overrides)."""
    for name, value in values.items():
        expected = _FAULT_PLANE_TYPES[name]
        if value is not None and not isinstance(value, expected):
            raise TypeError(f"{name} must be a {expected.__name__} or None, "
                            f"got {type(value).__name__}")


class FleetServer:
    """Serve a multi-model request stream with dynamic batching + admission."""

    def __init__(self, fleet: Sequence[str], *,
                 batch_size: int = 8,
                 image_size: int | None = None,
                 policy: BatchingPolicy | None = None,
                 admission: AdmissionPolicy | None = None,
                 cache_capacity: int | None = None,
                 compile_config: CompileConfig | None = None,
                 artifact_dir=None,
                 compute_time_fn: Callable[[str, int], float] | None = None,
                 warm: bool = True,
                 workers: int = 1,
                 execution: str = "virtual",
                 backend: str = "thread",
                 disk_max_bytes: int | None = None,
                 telemetry: TelemetryConfig | None = None,
                 faults: FaultPlan | None = None,
                 retry: RetryPolicy | None = None,
                 breaker: BreakerPolicy | None = None) -> None:
        fleet = list(fleet)
        if not fleet:
            raise ValueError("fleet must name at least one registry model")
        unknown = [name for name in fleet if name not in MODEL_REGISTRY]
        if unknown:
            raise ValueError(f"unknown fleet models {unknown}; "
                             f"available: {available_models()}")
        if len(set(fleet)) != len(fleet):
            raise ValueError(f"fleet has duplicate model names: {fleet}")
        self.fleet = fleet
        self.policy = policy if policy is not None else BatchingPolicy.dynamic(
            max_batch=batch_size, max_wait_s=5e-3)
        if self.policy.max_batch > batch_size:
            raise ValueError(f"policy max_batch {self.policy.max_batch} exceeds the "
                             f"engine batch size {batch_size}")
        self.batch_size = batch_size

        # One typed compile config drives every cache compile (and the disk
        # tier's content address).
        config = (compile_config if compile_config is not None
                  else CompileConfig()).with_overrides(batch_size=batch_size)
        if image_size is not None:
            config = config.with_overrides(image_size=image_size)
        self.compile_config = config
        if execution not in ("virtual", "real"):
            raise ValueError(f"execution must be 'virtual' or 'real', "
                             f"got {execution!r}")
        if backend not in ("thread", "process"):
            raise ValueError(f"backend must be 'thread' or 'process', "
                             f"got {backend!r}")
        if backend == "process" and execution != "real":
            raise ValueError("backend='process' requires execution='real' "
                             "(the virtual clock runs in-process)")
        self.execution = execution
        self.backend = backend
        self.cache = PlanCache(
            cache_capacity if cache_capacity is not None else len(fleet),
            compile_fn=lambda name: deploy_compile(name, config),
            artifact_dir=artifact_dir,
            key_fn=lambda name: config_key(name, config),
            disk_max_bytes=disk_max_bytes,
        )
        self.cost_model = EwmaCostModel()
        self.admission = AdmissionController(
            admission if admission is not None else AdmissionPolicy(), self.cost_model)
        self.compute_time_fn = compute_time_fn
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        _check_fault_plane(telemetry=telemetry, faults=faults, retry=retry,
                           breaker=breaker)
        self.telemetry = telemetry
        self.faults = faults
        self.retry = retry
        self.breaker = breaker
        self.workers = int(workers)
        if warm:
            self.warm_up()

    def warm_up(self) -> None:
        """Compile the fleet and prime the cost model with one batch cost.

        Models beyond the cache capacity are compiled and immediately LRU
        evicted (their first mid-stream request recompiles), but the cost
        model keeps every model's batch cost either way.  With a
        deterministic ``compute_time_fn`` the prime comes from it too, so
        admission predictions stay machine-independent; otherwise one probe
        batch is measured.
        """
        for name in self.fleet:
            compiled = self.cache.get(name)
            if self.compute_time_fn is not None:
                self.cost_model.prime(name, self.compute_time_fn(name, self.batch_size))
                continue
            probe = np.zeros(compiled.engine.input_shape)
            start = time.perf_counter()
            compiled.engine.run(probe)
            self.cost_model.prime(name, time.perf_counter() - start)

    def close(self) -> None:
        """End the server's life.  Thread pools and worker processes live
        only for the duration of one :meth:`serve` call, so nothing is held
        here; callers scope a server with it all the same."""

    @property
    def input_shapes(self) -> dict[str, tuple[int, int, int]]:
        """Per-model request image shapes the fleet engines expect."""
        shapes = {}
        for name in self.fleet:
            compiled = self.cache.peek(name)   # no LRU / hit-counter side effects
            if compiled is not None:
                shapes[name] = tuple(compiled.engine.input_shape[1:])
            else:
                shapes.update(fleet_input_shapes(
                    [name], self.compile_config.image_size))
        return shapes

    # ------------------------------------------------------------------ #
    def serve(self, requests: Sequence[Request], *,
              pacing: object = None,
              time_scale: float = 1.0,
              telemetry: TelemetryConfig | None = None,
              faults: FaultPlan | None = None,
              retry: RetryPolicy | None = None,
              breaker: BreakerPolicy | None = None) -> FleetReport:
        """Serve a request stream.

        ``execution="virtual"`` (default) runs the discrete-event loop on
        the virtual clock; ``execution="real"`` drives the dispatch workers
        as an actual thread pool (``backend="thread"``) or worker-process
        fleet (``backend="process"``) over per-model tape engines and
        reports measured wall-clock throughput/latency (see
        :meth:`_serve_real`).  Output codes per request are bit-identical
        across all modes.

        ``pacing`` selects how real execution offers the stream to the
        server: ``"flood"`` (default — deterministic ingestion, then
        concurrent drain), ``"open"`` (arrival-paced on the wall clock,
        independent of completions), ``"closed"`` (completion-gated, at
        most ``workers`` in flight), or an explicit pacer instance from
        :mod:`repro.serving.workload` (``ClosedLoopPacer(requests,
        concurrency=K)`` for another bound).  ``time_scale``
        stretches the scenario clock for open-loop pacing.  The virtual
        loop is open-loop by construction and accepts only flood pacing.

        ``telemetry`` overrides the server's configured
        :class:`~repro.telemetry.TelemetryConfig` for this run; a config
        with ``sample_rate > 0`` records request spans (admission,
        queueing, batch execution) and attaches the resulting
        :class:`~repro.telemetry.Trace` to :attr:`FleetReport.trace`.

        ``faults`` / ``retry`` / ``breaker`` override the server's
        configured fault plane for this run (see :mod:`repro.faults`): a
        :class:`~repro.faults.FaultPlan` injects a deterministic failure
        schedule, a :class:`~repro.faults.RetryPolicy` turns batch faults
        into bounded retries (without one, fault errors propagate), and a
        :class:`~repro.faults.BreakerPolicy` sheds fast into sick models
        (shed reason ``"breaker"``).  The report's ``metrics["faults"]``
        block summarizes what happened.
        """
        reqs = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
        seen_ids: set[int] = set()
        for req in reqs:
            if req.model not in self.fleet:
                raise ValueError(f"request {req.request_id} targets {req.model!r}, "
                                 f"which is not in the fleet {self.fleet}")
            if req.arrival_s < 0:
                raise ValueError(f"request {req.request_id} has negative arrival time")
            if req.request_id in seen_ids:
                raise ValueError(f"duplicate request_id {req.request_id}; outcomes are "
                                 f"keyed by id, so ids must be unique per stream")
            seen_ids.add(req.request_id)
        pacer, pacing_name = self._make_pacer(reqs, pacing, time_scale)
        real = self.execution == "real"
        if pacer is not None and not real:
            raise ValueError(f"pacing={pacing_name!r} requires execution='real'; "
                             f"the virtual discrete-event loop paces arrivals "
                             f"on its own clock (open-loop by construction)")
        config = telemetry if telemetry is not None else self.telemetry
        plan = faults if faults is not None else self.faults
        retry = retry if retry is not None else self.retry
        breaker = breaker if breaker is not None else self.breaker
        _check_fault_plane(telemetry=config, faults=plan, retry=retry,
                           breaker=breaker)
        tracer = (Tracer(config, clock="wall" if real else "virtual")
                  if config is not None and config.enabled else NULL_TRACER)
        corrupted = (self._apply_artifact_faults(plan)
                     if plan is not None else {})
        injector = plan.injector() if plan is not None else None
        session = _ServeSession(
            self, execution=self.execution,
            backend=self.backend if real else "event-loop",
            pacing=pacing_name if real else "virtual",
            tracer=tracer, telemetry=config, plan=plan, retry=retry,
            # The breaker state machine is per-run so reports stay
            # self-contained.
            breaker=CircuitBreaker(breaker) if breaker is not None else None,
            corrupted=corrupted)
        if real:
            return self._serve_real(reqs, session, pacer, injector)
        return self._serve_virtual(reqs, session, injector)

    def _apply_artifact_faults(self, plan: FaultPlan) -> dict[str, int]:
        """Fire ``artifact_corrupt`` events: torn-write the disk-tier ``.rpa``
        and evict the resident entry, so the next ``cache.get`` exercises the
        quarantine + recompile path.  No disk tier -> nothing to corrupt."""
        corrupted: dict[str, int] = {}
        for event in plan.artifact_events:
            path = self.cache.artifact_path(event.model)
            if path is None or not Path(path).exists():
                continue
            Path(path).write_bytes(b"repro-fault: torn artifact write\x00")
            self.cache.evict(event.model)
            corrupted[event.model] = corrupted.get(event.model, 0) + 1
        return corrupted

    def _make_pacer(self, reqs: list[Request], pacing, time_scale: float):
        """Resolve the ``pacing`` argument into (pacer, name)."""
        if pacing is None or pacing == "flood":
            return None, "flood"
        if isinstance(pacing, str):
            if pacing == "open":
                return OpenLoopPacer(reqs, time_scale=time_scale), "open"
            if pacing == "closed":
                return ClosedLoopPacer(reqs, concurrency=self.workers), "closed"
            raise ValueError(f"pacing must be 'flood', 'open', 'closed' or a "
                             f"pacer instance, got {pacing!r}")
        return pacing, getattr(pacing, "kind", "custom")

    def _bucket_fill(self, fill: int) -> int | None:
        """``fill`` when a power-of-two bucket tape below the batch runs it;
        ``None`` (the full-batch cost entry) when the engine itself does."""
        return fill if 1 << (fill - 1).bit_length() < self.batch_size else None

    def _serve_virtual(self, reqs: list[Request], session: _ServeSession,
                       injector) -> FleetReport:
        """The discrete-event scheduler over a pre-validated, sorted stream.

        The fault plane runs on the virtual clock: injected failures fail
        the launched batch without an engine pass and advance the clock by
        the modeled detection cost (a ``task_hang`` costs
        ``min(duration_s, retry.task_timeout_s)``, crashes additionally
        hold the worker for the modeled respawn backoff), retries requeue
        per :class:`~repro.faults.RetryPolicy`, and the breaker gates
        arrivals — so a chaos run's outcomes and makespan are exactly
        reproducible, machine-independent numbers.
        """
        tracer, telemetry, retry = session.tracer, session.telemetry, session.retry
        queues = session.queues
        pending = {m: 0 for m in self.fleet}
        for req in reqs:
            pending[req.model] += 1
        #: modeled cost of respawning a crashed or hung worker
        respawn_cost = retry.respawn_backoff_s if retry is not None else 0.0

        # N dispatch workers on the virtual clock; a batch launches on the
        # earliest-free worker.  Each model additionally serializes on its
        # own engine (one resident engine per model), so concurrency is
        # *across* models — exactly what a real fleet with one engine
        # instance per model can overlap.
        worker_free = [0.0] * self.workers
        model_free = {m: 0.0 for m in self.fleet}
        last_event = 0.0
        i, n = 0, len(reqs)
        while True:
            free_slot = min(worker_free)
            # Earliest possible batch launch across the fleet.
            best: tuple[float, float, str] | None = None
            for model in self.fleet:
                queue = queues[model]
                ready = queue.ready_time(pending[model])
                if ready == math.inf:
                    continue
                key = (max(ready, free_slot, model_free[model]),
                       queue.head_arrival_s, model)
                if best is None or key < best:
                    best = key

            next_arrival = reqs[i].arrival_s if i < n else math.inf
            if i < n and (best is None or next_arrival <= best[0]):
                req = reqs[i]
                i += 1
                pending[req.model] -= 1
                last_event = max(last_event, req.arrival_s)
                # The request cannot start before a worker is free AND its
                # model's engine is free (one engine per model).
                session.admit(req, req.arrival_s,
                              max(free_slot, model_free[req.model]))
                continue
            if best is None:
                break

            # Launch the chosen model's batch on the earliest-free worker.
            launch_t, _, model = best
            worker_index = worker_free.index(free_slot)
            batch = queues[model].pop_batch()
            fill = len(batch)
            event = (injector.poll(worker_index, model)
                     if injector is not None else None)
            if event is not None and event.kind in ("worker_crash",
                                                    "task_hang", "task_error"):
                # Modeled batch failure: no engine pass, no codes.  The
                # clock advances by the detection cost; crashes and hangs
                # also hold the worker for the modeled respawn.
                if event.kind == "task_hang":
                    detect = (min(event.duration_s, retry.task_timeout_s)
                              if retry is not None else event.duration_s)
                else:
                    detect = _VIRTUAL_FAULT_DETECT_S
                finish = launch_t + detect
                recovery = (respawn_cost if event.kind in ("worker_crash",
                                                           "task_hang")
                            else 0.0)
                worker_free[worker_index] = finish + recovery
                last_event = max(last_event, finish + recovery)
                if tracer.enabled:
                    tracer.record(event.kind, "fault", launch_t, finish,
                                  lane=f"worker-{worker_index}",
                                  args={"model": model, "fill": fill,
                                        "batch_index": session.batch_index})
                    if recovery:
                        tracer.record("respawn", "fault", finish,
                                      finish + recovery,
                                      lane=f"worker-{worker_index}",
                                      args={"worker": worker_index,
                                            "recovery_s": recovery})
                _, backoff, _ = session.fail_batch(
                    worker_index, model, batch, event.kind, launch_t, finish)
                model_free[model] = finish + backoff
                continue
            engine = self.cache.get(model).engine
            images = np.stack([r.image for r in batch])
            batch_traced = tracer.enabled and any(
                r.request_id in session.traced for r in batch)
            # Tape spans land on the virtual clock relative to the launch.
            emit = (_tape_spans(tracer, telemetry, worker_index,
                                time.perf_counter(), launch_t)
                    if batch_traced else None)
            (codes,), _, _, measured = timed_run(engine, [images], emit)
            compute = (self.compute_time_fn(model, fill)
                       if self.compute_time_fn is not None else measured)
            if event is not None and event.kind == "slow_task":
                # Straggler: correct codes, degraded timing.
                session.note_fault("slow_task")
                compute += event.duration_s
            # A modeled cost (compute_time_fn) keeps feeding the full-batch entry.
            self.cost_model.observe(model, compute, None if self.compute_time_fn
                                    else self._bucket_fill(fill))
            finish = launch_t + compute
            worker_free[worker_index] = finish
            model_free[model] = finish
            last_event = max(last_event, finish)
            if batch_traced:
                tracer.record(model, "batch", launch_t, finish,
                              lane=f"worker-{worker_index}",
                              args={"fill": fill,
                                    "batch_index": session.batch_index,
                                    "compute_ms_wall": measured * 1e3})
            session.complete_batch(worker_index, model, batch, codes,
                                   compute, launch_t, finish)

        # Every modeled crash or hang cost one respawn.
        crashes = session.observed_faults.get("worker_crash", 0)
        timeouts = session.observed_faults.get("task_hang", 0)
        return session.report(
            last_event,
            supervisor={"crashes": crashes, "timeouts": timeouts,
                        "respawns": crashes + timeouts,
                        "respawn_s": ([round(respawn_cost, 6)]
                                      * (crashes + timeouts))},
            injected=injector.stats() if injector is not None else None)

    # ------------------------------------------------------------------ #
    def _export_artifacts(self, models: list[str]):
        """Persist ``.rpa`` artifacts for worker processes to warm from.

        With a disk tier configured the cache's content-addressed paths are
        reused (and populated if missing); otherwise artifacts go to a
        temporary directory that lives as long as the returned handle.
        """
        paths: dict[str, str] = {}
        tmpdir: tempfile.TemporaryDirectory | None = None
        for name in models:
            compiled = self.cache.get(name)
            path = self.cache.artifact_path(name)
            if path is None:
                if tmpdir is None:
                    tmpdir = tempfile.TemporaryDirectory(prefix="repro-fleet-")
                path = Path(tmpdir.name) / f"{name}.rpa"
            if not Path(path).exists():
                compiled.save(path)
            paths[name] = str(path)
        return paths, tmpdir

    def _serve_real(self, reqs: list[Request], session: _ServeSession,
                    pacer, injector) -> FleetReport:
        """Wall-clock serving: N dispatch workers draining real queues.

        **Faults & supervision.** Every task fault is drawn here, in the
        parent, once per dispatch on either backend: a ``slow_task`` sleeps
        and a ``task_error`` raises before the batch runs; a crash or hang
        raises in-process on the thread backend and is handed to the worker
        process, which acts it out, on the process backend.  With ``retry``
        set the dispatch workers are supervised: a
        :class:`~repro.faults.FaultError` from a dispatch (a crashed or hung
        worker process, an injected task error) fails the claimed batches,
        requeues their requests up to the retry budget, backs the model
        off, respawns crashed process workers, and — after
        ``retry.degrade_after`` consecutive failures on one model — degrades
        that model to the in-process thread path.  Without ``retry`` the
        typed fault error propagates to the caller unchanged.

        **Ingestion.** Flood pacing (default) is a deterministic
        single-threaded pass — every request runs through admission control
        (using real queue depths and the EWMA cost model) and lands in its
        model's queue before any worker starts, so the set of shed requests
        and every output code are reproducible run to run.  Open/closed
        pacing instead releases requests on the wall clock from a dedicated
        ingestion thread (see :mod:`repro.serving.workload`); admission then
        sees genuinely time-varying queue depths, and latency is measured
        from each request's release instant.

        **Drain.** The dispatch workers drain the queues concurrently: each
        worker first expires the queue heads that no batch could finish by
        their deadline any more (:meth:`_ServeSession.expire`), so the
        engine never runs an answer that already counts as late, then
        claims the deepest idle model's queue, pops up to
        ``max_batch`` requests (packing **several** policy batches into one
        tape execution when the backlog allows — megabatch coalescing), and
        runs the model's engine outside the scheduler lock.  With
        ``backend="thread"`` NumPy's BLAS releases the GIL, so different
        models' batches overlap on real cores; with ``backend="process"``
        each dispatch worker proxies its claims to a dedicated worker
        *process* hosting its own tape engines (images and codes cross via
        shared memory), so even the pure-Python tape dispatch overlaps.
        Each model serializes on its own engine either way, matching the
        virtual mode's one-engine-per-model semantics.  Batch composition
        under thread/process scheduling is nondeterministic, but every plan
        op is per-sample independent, so per-request output codes are not.
        """
        tracer, telemetry = session.tracer, session.telemetry
        retry, queues = session.retry, session.queues

        def now_s() -> float:
            """Seconds since ``serve_start``, the one origin of every stamp
            (latencies, outcomes, metrics timeline, spans, breaker)."""
            return time.perf_counter() - serve_start

        lock = threading.Lock()
        work_ready = threading.Condition(lock)
        model_busy = {m: False for m in self.fleet}
        ingesting = pacer is not None
        failures: list[BaseException] = []
        #: fault plane (guarded by the scheduler lock unless noted)
        supervised = retry is not None
        #: model -> stamp (on now_s) before which pop_work skips it
        model_hold: dict[str, float] = {}
        degraded_models: set[str] = set()
        dead_workers: set[int] = set()

        if pacer is None:
            # Deterministic admission pass (flood ingestion).  The whole
            # stream is offered at once, before serve_start: stamped 0.0.
            for req in reqs:
                session.admit(req, 0.0, 0.0)

        # Pin every requested model's engine resident before the drain (the
        # LRU cache is not touched from worker threads; paced arrivals may
        # target any model at any time).
        needed = sorted({r.model for r in reqs})
        engines = {}
        for model in needed:
            engines[model] = self.cache.get(model).engine

        proc_backend = None
        tmpdir = None
        if self.backend == "process":
            from .procfleet import ProcessFleetBackend
            artifact_paths, tmpdir = self._export_artifacts(needed)
            specs = {m: {"input_shape": tuple(engines[m].input_shape),
                         "output_shape": tuple(engines[m].output_shape)}
                     for m in needed}
            proc_backend = ProcessFleetBackend(
                specs, artifact_paths, workers=self.workers,
                task_timeout_s=(retry.task_timeout_s if retry is not None
                                else 60.0),
                max_respawns=(retry.max_respawns if retry is not None else 2),
                respawn_backoff_s=(retry.respawn_backoff_s
                                   if retry is not None else 0.05))
            proc_backend.start()

        def pop_work(expired: list[int]):
            """Claim the deepest idle queue; returns (model, policy batches).

            Every idle queue first expires its hopeless heads, priced at the
            model's full-batch cost estimate; their ids go on ``expired``
            for the caller to hand the pacer once the lock is released.

            Under the full-batch policy a short queue is a final partial
            batch (the stream has drained or a timeout fires), so it
            flushes rather than waits — matching the virtual loop's
            end-of-stream semantics.
            """
            best_model = None
            now = now_s()
            for model in needed:
                queue = queues[model]
                if model_busy[model] or not queue.depth:
                    continue
                hold = model_hold.get(model)
                if hold is not None:
                    # Retry backoff: the model sits out until its hold
                    # expires (waiters use a timed wait while holds exist).
                    if hold > now:
                        continue
                    del model_hold[model]
                shed = session.expire(model, now,
                                      self.cost_model.estimate(model))
                if shed:
                    expired.extend(shed)
                    # Waiters may be waiting only for this backlog to drain.
                    work_ready.notify_all()
                    if not queue.depth:
                        continue
                if best_model is None or queue.depth > queues[best_model].depth:
                    best_model = model
            if best_model is None:
                return None
            queue = queues[best_model]
            engine = engines[best_model]
            groups = [queue.pop_batch()]
            total = len(groups[0])
            # Megabatch: pack further policy batches into the same tape pass.
            while queue.depth and total + min(queue.depth, self.policy.max_batch) \
                    <= engine.batch_size:
                batch = queue.pop_batch()
                groups.append(batch)
                total += len(batch)
            model_busy[best_model] = True
            return best_model, groups

        def execute(worker_index: int, model: str, images: list[np.ndarray],
                    trace_batch: bool = False):
            """Run megabatch groups; returns (per-group codes, passes, seconds).

            Draws the dispatch's task fault first; degraded models and dead
            slots, which run in-process as fallbacks, draw none.  With
            ``trace_batch`` the process backend ships its worker-side spans
            back with the result (clamped into the parent-observed dispatch
            window), and the thread backend records tape spans when
            ``telemetry.tape_spans`` asks for them.
            """
            fallback = model in degraded_models or worker_index in dead_workers
            remote = proc_backend is not None and not fallback
            event = (injector.poll(worker_index, model)
                     if injector is not None and not fallback else None)
            kind = event.kind if event is not None else None
            fault = None
            if kind == "slow_task":           # straggle, then run
                with lock:
                    session.note_fault("slow_task")
                time.sleep(event.duration_s)
            elif kind == "task_error":
                raise InjectedFault(event)
            elif kind is not None and remote:  # the worker process acts it out
                fault = (kind, event.duration_s)
            elif kind == "worker_crash":
                raise WorkerCrashed(
                    f"injected crash on worker {worker_index} ({model})")
            elif kind == "task_hang":
                limit = (min(event.duration_s, retry.task_timeout_s)
                         if retry is not None else event.duration_s)
                time.sleep(limit)
                raise WorkerTimeout(f"injected hang on worker {worker_index} "
                                    f"({model}) exceeded {limit:.3f}s")
            if remote:
                trace_req = None
                if trace_batch:
                    trace_req = {"now": now_s(),
                                 "tape": bool(telemetry is not None
                                              and telemetry.tape_spans)}
                group_codes, executions, elapsed, spans = proc_backend.run(
                    worker_index, model, images, trace=trace_req, fault=fault)
                if trace_req is not None and spans:
                    tracer.adopt(spans, clamp=(trace_req["now"], now_s()))
                return group_codes, executions, elapsed
            emit = (_tape_spans(tracer, telemetry, worker_index, serve_start,
                                0.0)
                    if trace_batch else None)
            group_codes, executions, _, elapsed = timed_run(engines[model],
                                                            images, emit)
            return group_codes, executions, elapsed

        def handle_failure(worker_index: int, model: str, groups,
                           exc: BaseException, claim_t: float) -> None:
            """Supervised recovery from one failed megabatch dispatch.

            The session requeues the claimed requests within the retry
            budget (failing the exhausted ones) and records the breaker
            outcome; this driver backs the model off on the wall clock,
            respawns a crashed/hung process worker, and degrades the model
            to the in-process path after a long failure streak.
            """
            kind = getattr(exc, "kind", "fault")
            end = now_s()
            claimed = [req for batch in groups for req in batch]
            with work_ready:
                streak, backoff, failed_ids = session.fail_batch(
                    worker_index, model, claimed, kind, claim_t, end)
                if backoff > 0.0:
                    model_hold[model] = end + backoff
                model_busy[model] = False
                work_ready.notify_all()
            if tracer.enabled:
                tracer.record(kind, "fault", end, now_s(),
                              lane=f"worker-{worker_index}",
                              args={"model": model, "streak": streak,
                                    "requests": len(claimed)})
            if pacer is not None:
                for request_id in failed_ids:
                    pacer.on_completion(request_id)
            # A crashed or hung worker process needs a respawn before this
            # slot dispatches to the backend again; past the respawn budget
            # the slot falls back to the in-process path permanently.
            if (proc_backend is not None
                    and isinstance(exc, (WorkerCrashed, WorkerTimeout))
                    and worker_index not in dead_workers):
                t0 = now_s() if tracer.enabled else 0.0
                try:
                    recovery = proc_backend.respawn(worker_index)
                except FaultError:
                    with work_ready:
                        dead_workers.add(worker_index)
                else:
                    if tracer.enabled:
                        tracer.record("respawn", "fault", t0, now_s(),
                                      lane=f"worker-{worker_index}",
                                      args={"worker": worker_index,
                                            "recovery_s": recovery})
            if (proc_backend is not None and retry is not None
                    and streak >= retry.degrade_after
                    and model not in degraded_models):
                with work_ready:
                    degraded_models.add(model)
                if tracer.enabled:
                    tracer.record("degrade", "fault", now_s(), now_s(),
                                  lane=f"worker-{worker_index}",
                                  args={"model": model, "streak": streak,
                                        "fallback": "thread"})

        def worker(worker_index: int) -> None:
            while True:
                expired: list[int] = []
                with work_ready:
                    claim = pop_work(expired)
                    while claim is None and not expired:
                        if failures or not (ingesting or session.depth()):
                            return
                        if model_hold:
                            # Timed wait: a hold expiring is not signaled.
                            work_ready.wait(timeout=0.02)
                        else:
                            work_ready.wait()
                        claim = pop_work(expired)
                # A closed-loop pacer must get expired slots back before
                # this worker waits again, or ingestion could stall on them.
                if pacer is not None:
                    for request_id in expired:
                        pacer.on_completion(request_id)
                if claim is None:
                    continue
                model, groups = claim
                claim_t = now_s()
                batch_traced = tracer.enabled and any(
                    req.request_id in session.traced for batch in groups
                    for req in batch)
                try:
                    images = [np.stack([r.image for r in batch])
                              for batch in groups]
                    group_codes, executions, elapsed = execute(
                        worker_index, model, images, batch_traced)
                except BaseException as exc:
                    if supervised and isinstance(exc, FaultError):
                        handle_failure(worker_index, model, groups, exc,
                                       claim_t)
                        continue
                    # A dead worker must not strand the fleet: surface the
                    # failure, release the model, and wake the others so
                    # they can drain or exit.
                    with work_ready:
                        failures.append(exc)
                        model_busy[model] = False
                        work_ready.notify_all()
                    if pacer is not None:
                        pacer.abort()
                    return
                end = now_s()
                if batch_traced:
                    tracer.record(model, "batch", claim_t, end,
                                  lane=f"worker-{worker_index}",
                                  args={"groups": len(groups),
                                        "fills": [len(b) for b in groups],
                                        "executions": executions,
                                        "backend": self.backend,
                                        "compute_ms": elapsed * 1e3})
                # Mean images per engine pass: the bucket the cost belongs to.
                fill = -(-sum(len(batch) for batch in groups) // max(1, executions))
                with work_ready:
                    self.cost_model.observe(model, elapsed / max(1, executions),
                                            self._bucket_fill(fill))
                    if len(groups) > 1:
                        session.metrics.record_megabatch(model, len(groups))
                    for batch, codes in zip(groups, group_codes):
                        session.complete_batch(
                            worker_index, model, batch, codes,
                            elapsed / len(groups), claim_t, end)
                    model_busy[model] = False
                    work_ready.notify_all()
                if pacer is not None:
                    for batch in groups:
                        for req in batch:
                            pacer.on_completion(req.request_id)

        def ingest() -> None:
            """Paced ingestion: release requests on the wall clock."""
            nonlocal ingesting
            try:
                for req, _ in pacer:
                    # Stamp the release on serve_start's origin; the pacer's
                    # own offsets start later, in here.
                    now = now_s()
                    with work_ready:
                        if failures:
                            break
                        session.release[req.request_id] = now
                        done_ids = session.admit(req, now, now)
                        work_ready.notify_all()
                    for request_id in done_ids:
                        pacer.on_completion(request_id)
            finally:
                with work_ready:
                    ingesting = False
                    work_ready.notify_all()

        try:
            serve_start = time.perf_counter()
            ingest_thread = None
            if pacer is not None:
                ingest_thread = threading.Thread(target=ingest,
                                                 name="fleet-ingest", daemon=True)
                ingest_thread.start()
            threads = [threading.Thread(target=worker, args=(i,),
                                        name=f"fleet-dispatch-{i}", daemon=True)
                       for i in range(self.workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if ingest_thread is not None:
                ingest_thread.join()
            if failures:
                raise failures[0]
            makespan = time.perf_counter() - serve_start
        finally:
            supervisor_stats = None
            if proc_backend is not None:
                supervisor_stats = proc_backend.fault_stats()
                proc_backend.close()
            if tmpdir is not None:
                tmpdir.cleanup()

        return session.report(
            makespan,
            supervisor=(supervisor_stats if supervisor_stats is not None
                        else {"crashes": 0, "timeouts": 0, "respawns": 0,
                              "respawn_counts": [], "respawn_s": []}),
            injected=injector.stats() if injector is not None else None,
            degraded_models=degraded_models, dead_workers=dead_workers)
