"""Fault injection, worker supervision, and retry/breaker resilience.

The fault plane's acceptance claim mirrors the serving stack's: chaos is an
*execution* detail, never a numerics change.  A seeded
:class:`~repro.faults.FaultPlan` replays the same crash/hang/error schedule
on the virtual clock and on a live multiprocess fleet; every request that
completes — before, between, or after injected failures — carries output
codes bit-identical to a fault-free run, and the supervisor's recovery
actions (respawns, retries, degradation, breaker trips) are all visible in
the report and trace.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import sys
import threading
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.deploy import CompileConfig
from repro.faults import (
    BreakerPolicy,
    CircuitBreaker,
    FaultError,
    FaultEvent,
    FaultPlan,
    RetryPolicy,
    WorkerCrashed,
    WorkerTimeout,
)
from repro.serving import (
    AdmissionPolicy,
    BatchingPolicy,
    ClosedLoopPacer,
    FleetServer,
    OpenLoopPacer,
    PlanCache,
    Request,
    Scenario,
    fleet_input_shapes,
    generate_requests,
)
from repro.telemetry import TelemetryConfig

FLEET = ["lenet_nano", "mobilenet_v1_nano"]
IMAGE_SIZE = 8
BATCH = 8
COMPILE_CONFIG = CompileConfig().with_overrides(calibration_samples=8,
                                                calibration_batch_size=4)

#: deterministic per-batch compute cost (seconds) for the virtual clock
FIXED_COST = lambda model, fill: 2e-3

#: fast supervision knobs so chaos tests detect hangs in well under a second
RETRY = RetryPolicy(max_attempts=3, task_timeout_s=0.75,
                    respawn_backoff_s=0.01)


def _requests(seed: int = 3, rate_rps: float = 120.0, duration_s: float = 0.5,
              n: int | None = None):
    scenario = Scenario("chaos", "poisson", duration_s=duration_s,
                        model_mix=(("lenet_nano", 0.5),
                                   ("mobilenet_v1_nano", 0.5)),
                        slo_ms=None, params=dict(rate_rps=rate_rps))
    reqs = generate_requests(scenario, fleet_input_shapes(FLEET, IMAGE_SIZE),
                             seed=seed)
    return reqs if n is None else reqs[:n]


def _server(execution: str = "virtual", **kwargs) -> FleetServer:
    kwargs.setdefault("admission", AdmissionPolicy(max_queue_depth=None,
                                                   slo_shed=False))
    kwargs.setdefault("policy", BatchingPolicy.dynamic(BATCH, 5e-3))
    return FleetServer(FLEET, batch_size=BATCH, image_size=IMAGE_SIZE,
                       compile_config=COMPILE_CONFIG, execution=execution,
                       **kwargs)


def _chaos_plan() -> FaultPlan:
    return FaultPlan(events=(
        FaultEvent("worker_crash", worker=0, task_index=1),
        FaultEvent("task_hang", worker=1, task_index=2, duration_s=5.0),
        FaultEvent("task_error", count=1),
    ), seed=8)


def _assert_codes_match(report, baseline) -> int:
    base = {o.request_id: o for o in baseline.outcomes}
    checked = 0
    for outcome in report.outcomes:
        if outcome.completed and base[outcome.request_id].completed:
            np.testing.assert_array_equal(outcome.codes,
                                          base[outcome.request_id].codes)
            checked += 1
    return checked


# ---------------------------------------------------------------------- #
# FaultPlan / FaultInjector
# ---------------------------------------------------------------------- #
def test_fault_event_validation():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultEvent("meteor_strike")
    with pytest.raises(ValueError):
        FaultEvent("task_hang", duration_s=-1.0)
    with pytest.raises(ValueError):
        FaultEvent("task_error", count=0)
    with pytest.raises(ValueError, match="artifact_corrupt"):
        FaultEvent("artifact_corrupt")   # requires a model


def test_injector_addressed_event_fires_exactly_at_its_coordinates():
    plan = FaultPlan(events=(FaultEvent("task_error", worker=0, task_index=2),))
    injector = plan.injector()
    # worker 1 never sees the event, worker 0 sees it only at ordinal 2
    assert injector.poll(1) is None
    hits = [injector.poll(0) for _ in range(4)]
    assert [e.kind if e else None for e in hits] == \
        [None, None, "task_error", None]
    # consumed: replaying more tasks never re-fires it
    assert all(injector.poll(0) is None for _ in range(8))
    stats = injector.stats()
    assert stats["injected"] == {"task_error": 1}
    assert stats["pending"] == 0


def test_floating_event_fires_count_times_on_any_worker():
    plan = FaultPlan(events=(FaultEvent("task_error", count=2),))
    injector = plan.injector()
    kinds = [e.kind if e else None for e in
             (injector.poll(0), injector.poll(1), injector.poll(0))]
    assert kinds == ["task_error", "task_error", None]


def test_seeded_plan_is_reproducible_and_pickles():
    kwargs = dict(workers=2, horizon_tasks=32, crash_rate=0.1,
                  hang_rate=0.1, error_rate=0.2, slow_rate=0.2)
    plan_a = FaultPlan.seeded(7, **kwargs)
    plan_b = FaultPlan.seeded(7, **kwargs)
    assert plan_a.events == plan_b.events
    assert plan_a.events != FaultPlan.seeded(8, **kwargs).events
    # plans are plain values: they pickle unchanged
    clone = pickle.loads(pickle.dumps(plan_a))
    assert clone.events == plan_a.events


# ---------------------------------------------------------------------- #
# RetryPolicy / CircuitBreaker
# ---------------------------------------------------------------------- #
def test_retry_policy_backoff_and_exhaustion():
    policy = RetryPolicy(max_attempts=3, backoff_s=0.1,
                         backoff_multiplier=2.0, deadline_ms=500.0)
    assert policy.attempt_backoff_s(0) == 0.0
    assert policy.attempt_backoff_s(1) == pytest.approx(0.1)
    assert policy.attempt_backoff_s(3) == pytest.approx(0.4)
    assert not policy.exhausted(2, 0.1)
    assert policy.exhausted(3, 0.1)          # attempts out
    assert policy.exhausted(1, 0.6)          # deadline out
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(task_timeout_s=0.0)


def test_circuit_breaker_opens_probes_and_recloses():
    breaker = CircuitBreaker(BreakerPolicy(window=8, failure_threshold=0.5,
                                           min_samples=2, cooldown_s=1.0,
                                           half_open_probes=1))
    assert breaker.allow("m", 0.0)
    breaker.record("m", False, 0.0)
    breaker.record("m", False, 0.1)
    assert breaker.state("m") == "open"
    assert not breaker.allow("m", 0.5)       # inside cooldown: shed fast
    assert breaker.allow("m", 1.2)           # cooldown over: half-open probe
    assert breaker.state("m") == "half_open"
    breaker.record("m", True, 1.3)
    assert breaker.state("m") == "closed"
    snap = breaker.snapshot()
    assert snap["models"]["m"]["opens"] == 1
    assert snap["models"]["m"]["shed_fast"] == 1
    states = [t[2] for t in snap["models"]["m"]["transitions"]]
    assert states == ["open", "half_open", "closed"]


def test_circuit_breaker_half_open_failure_reopens():
    breaker = CircuitBreaker(BreakerPolicy(min_samples=1,
                                           failure_threshold=1.0,
                                           cooldown_s=0.5))
    breaker.record("m", False, 0.0)
    assert breaker.allow("m", 1.0)
    breaker.record("m", False, 1.1)
    assert breaker.state("m") == "open"
    assert breaker.snapshot()["models"]["m"]["opens"] == 2


# ---------------------------------------------------------------------- #
# Virtual-clock chaos: deterministic, bit-identical, fully reported
# ---------------------------------------------------------------------- #
def test_virtual_chaos_is_deterministic_and_bit_identical():
    requests = _requests()
    server = _server("virtual", compute_time_fn=FIXED_COST, workers=2)
    baseline = server.serve(requests)
    assert baseline.completed == len(requests)

    plan = _chaos_plan()
    first = server.serve(requests, faults=plan, retry=RETRY)
    second = server.serve(requests, faults=plan, retry=RETRY)

    # Bit-identical virtual replay: same outcomes, same makespan.
    assert first.metrics["makespan_s"] == second.metrics["makespan_s"]
    assert [(o.request_id, o.status, o.retries) for o in first.outcomes] == \
        [(o.request_id, o.status, o.retries) for o in second.outcomes]
    # Completed requests carry fault-free codes.
    assert _assert_codes_match(first, baseline) > 0

    faults = first.faults
    assert faults["observed"]["worker_crash"] == 1
    assert faults["observed"]["task_hang"] == 1
    assert faults["observed"]["task_error"] == 1
    assert faults["retried_requests"] > 0
    assert faults["supervisor"]["crashes"] == 1
    assert faults["supervisor"]["timeouts"] == 1
    assert faults["supervisor"]["respawns"] == 2
    assert first.metrics["fleet"]["retries"] > 0
    server.close()


def test_virtual_retry_exhaustion_fails_requests_with_labels():
    requests = _requests(n=16)
    # Every lenet batch errors; a single attempt means no retries at all.
    plan = FaultPlan(events=(FaultEvent("task_error", model="lenet_nano",
                                        count=64),))
    server = _server("virtual", compute_time_fn=FIXED_COST)
    report = server.serve(requests, faults=plan,
                          retry=RetryPolicy(max_attempts=1))
    failed = [o for o in report.outcomes if o.failed]
    assert failed and all(o.failure_reason == "task_error" for o in failed)
    assert all(o.retries == 0 for o in failed)
    assert report.metrics["fleet"]["failed"] == len(failed)
    per_model = report.metrics["per_model"]["lenet_nano"]
    assert per_model["failed"]["task_error"] == len(failed)
    # Failed requests surface in the prometheus exposition.
    text = report.prometheus()
    assert "repro_failed_total" in text
    assert 'reason="task_error"' in text
    assert "repro_faults_observed_total" in text
    server.close()


def test_virtual_breaker_sheds_fast_into_a_sick_model():
    requests = _requests(rate_rps=200.0, duration_s=1.0)
    plan = FaultPlan(events=(FaultEvent("task_error", model="lenet_nano",
                                        count=1024),))
    server = _server("virtual", compute_time_fn=FIXED_COST)
    report = server.serve(
        requests, faults=plan, retry=RetryPolicy(max_attempts=1),
        breaker=BreakerPolicy(window=8, failure_threshold=0.5, min_samples=2,
                              cooldown_s=10.0))
    shed = [o for o in report.outcomes
            if o.status == "shed" and o.shed_reason == "breaker"]
    assert shed and all(o.model == "lenet_nano" for o in shed)
    breaker = report.faults["breaker"]
    assert breaker["models"]["lenet_nano"]["opens"] >= 1
    assert breaker["models"]["lenet_nano"]["shed_fast"] >= len(shed)
    assert report.metrics["per_model"]["lenet_nano"]["shed"]["breaker"] \
        == len(shed)
    server.close()


@pytest.mark.parametrize("backend", ["virtual", "thread", "process"])
def test_slow_task_fault_degrades_latency_not_codes(backend):
    requests = _requests(n=8)
    # The straggle outlasts the recv deadline: on every backend a slow task
    # is late, never a hang, a retry or a respawn.
    slow_s = RETRY.task_timeout_s + 0.25
    plan = FaultPlan(events=(FaultEvent("slow_task", worker=0, task_index=0,
                                        duration_s=slow_s),))
    virtual = _server("virtual", compute_time_fn=FIXED_COST)
    baseline = virtual.serve(requests)
    server = (virtual if backend == "virtual"
              else _server("real", backend=backend))
    slowed = server.serve(requests, faults=plan, retry=RETRY)
    server.close()
    assert slowed.completed == len(requests)
    assert _assert_codes_match(slowed, baseline) == len(requests)
    assert slowed.metrics["makespan_s"] >= slow_s
    assert slowed.faults["observed"] == {"slow_task": 1}
    assert slowed.metrics["fleet"]["retries"] == 0
    assert slowed.faults["supervisor"]["respawns"] == 0


# ---------------------------------------------------------------------- #
# Expiry at dispatch: the wall driver sheds a queued request once it can no
# longer meet its deadline, instead of spending an engine pass on it
# ---------------------------------------------------------------------- #
EXPIRY_DEADLINE_S = 0.2
#: the first dispatch straggles past every queued request's deadline
STRAGGLE = FaultPlan(events=(FaultEvent("slow_task", worker=0, task_index=0,
                                        duration_s=0.3),))


def _deadline_flood(models=("lenet_nano",), n: int = 32,
                    deadline_s: float | None = EXPIRY_DEADLINE_S):
    rng = np.random.default_rng(11)
    return [Request(i, models[i % len(models)], 0.0,
                    rng.standard_normal((3, IMAGE_SIZE, IMAGE_SIZE)),
                    deadline_s=deadline_s)
            for i in range(n)]


def _expiry_server(backend: str = "thread", **admission) -> FleetServer:
    return _server("real", backend=backend, workers=1,
                   admission=AdmissionPolicy(max_queue_depth=None,
                                             **admission))


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_wall_driver_expires_what_a_straggler_made_hopeless(backend):
    requests = _deadline_flood()
    virtual = _server("virtual", compute_time_fn=FIXED_COST)
    baseline = virtual.serve(requests)
    virtual.close()
    server = _expiry_server(backend)
    report = server.serve(requests, faults=STRAGGLE)
    server.close()
    # The straggling first batch still completes (late); every request that
    # queued behind it is past its deadline once the worker is free again.
    completed = [o for o in report.outcomes if o.completed]
    shed = [o for o in report.outcomes if o.status == "shed"]
    assert [o.request_id for o in completed] == list(range(BATCH))
    assert {o.batch_index for o in completed} == {0}
    assert len(shed) == len(requests) - BATCH
    assert all(o.shed_reason == "expired" for o in shed)
    fleet = report.metrics["fleet"]
    assert fleet["completed"] + fleet["shed"] == fleet["arrivals"] == len(requests)
    assert fleet["failed"] == 0
    assert report.metrics["per_model"]["lenet_nano"]["shed"] == \
        {"expired": len(shed)}
    assert report.faults["observed"] == {"slow_task": 1}
    assert _assert_codes_match(report, baseline) == len(completed)


def _serve_within(server: FleetServer, requests, timeout_s: float = 60.0,
                  **kwargs):
    """``server.serve`` on a thread, failing the test if it does not return."""
    result = {}
    serve = threading.Thread(
        target=lambda: result.update(report=server.serve(requests, **kwargs)),
        daemon=True)
    serve.start()
    serve.join(timeout=timeout_s)
    assert not serve.is_alive(), "the serve stalled"
    server.close()
    return result["report"]


def test_expired_requests_give_their_closed_loop_slots_back():
    # Two models on one worker: whichever model straggles first, the other
    # model's released requests sit queued past their deadline and expire.
    # Their slots must return to the pacer, or ingestion stalls for good.
    requests = _deadline_flood(models=tuple(FLEET))
    pacer = ClosedLoopPacer(requests, concurrency=4)
    report = _serve_within(_expiry_server(), requests, pacing=pacer,
                           faults=STRAGGLE)
    assert report.pacing == "closed"
    assert any(o.shed_reason == "expired" for o in report.outcomes)
    fleet = report.metrics["fleet"]
    assert fleet["completed"] + fleet["shed"] == len(requests)
    assert fleet["failed"] == 0
    assert pacer.max_outstanding <= 4


def test_expiry_keeps_every_request_terminal_once_under_thread_contention():
    # More dispatch workers than cores and a short switch interval: expiry,
    # claims and completions interleave under the scheduler lock, and no
    # request may be lost, run after it expired, or expire twice.
    requests = _deadline_flood(models=tuple(FLEET), n=96)
    virtual = _server("virtual", compute_time_fn=FIXED_COST)
    baseline = virtual.serve(requests)
    virtual.close()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        report = _serve_within(
            _server("real", backend="thread", workers=4,
                    admission=AdmissionPolicy(max_queue_depth=None)),
            # the fleet's first dispatch straggles, on whichever worker
            requests, faults=FaultPlan(events=(FaultEvent(
                "slow_task", duration_s=0.3),)))
    finally:
        sys.setswitchinterval(interval)
    assert [o.request_id for o in report.outcomes] == list(range(len(requests)))
    shed = [o for o in report.outcomes if o.status == "shed"]
    assert shed and all(o.shed_reason == "expired" for o in shed)
    fleet = report.metrics["fleet"]
    assert fleet["completed"] + fleet["shed"] == fleet["arrivals"] == len(requests)
    assert sum(m["shed"].get("expired", 0)
               for m in report.metrics["per_model"].values()) == len(shed)
    assert _assert_codes_match(report, baseline) == fleet["completed"]


def test_expired_requests_close_their_span_lanes():
    requests = _deadline_flood()
    server = _expiry_server()
    report = server.serve(requests, faults=STRAGGLE,
                          telemetry=TelemetryConfig(sample_rate=1.0))
    server.close()
    expired = [o for o in report.outcomes if o.shed_reason == "expired"]
    assert expired
    for outcome in expired:
        lane = report.trace.by_trace_id(outcome.request_id)
        # It queued, then left the queue without an engine pass.
        assert [s.cat for s in lane].count("queue") == 1
        assert [s.cat for s in lane].count("execute") == 0
        (request,) = [s for s in lane if s.cat == "request"]
        assert request.args["status"] == "shed"
        assert request.args["reason"] == "expired"


@pytest.mark.parametrize("slo_shed, deadline_s", [(False, EXPIRY_DEADLINE_S),
                                                  (True, None)])
def test_expiry_is_off_without_slo_shedding_or_a_deadline(slo_shed,
                                                          deadline_s):
    requests = _deadline_flood(deadline_s=deadline_s)
    server = _expiry_server(slo_shed=slo_shed)
    report = server.serve(requests, faults=STRAGGLE)
    server.close()
    assert report.completed == len(requests)
    assert report.shed == 0


# ---------------------------------------------------------------------- #
# Lifecycle invariants on generated fault schedules (both drivers report
# through one session, so one set of assertions covers both clocks)
# ---------------------------------------------------------------------- #
_BATCH_FAULTS = ("worker_crash", "task_hang", "task_error")


def _seeded_plan(seed: int, workers: int, hang_s: float = 0.02) -> FaultPlan:
    return FaultPlan.seeded(seed, workers=workers, horizon_tasks=24,
                            crash_rate=0.05, hang_rate=0.05, error_rate=0.15,
                            slow_rate=0.1, hang_s=hang_s, slow_s=0.002)


def _assert_lifecycle_invariants(report, requests, baseline,
                                 retry: RetryPolicy) -> None:
    # Every request reaches exactly one terminal status.
    assert [o.request_id for o in report.outcomes] == \
        sorted(r.request_id for r in requests)
    fleet = report.metrics["fleet"]
    assert fleet["completed"] + fleet["shed"] + fleet["failed"] \
        == fleet["arrivals"] == len(requests)
    # Faults never change the numerics of what completes.
    assert _assert_codes_match(report, baseline) == fleet["completed"]
    for outcome in report.outcomes:
        assert outcome.status in ("completed", "shed", "failed")
        assert 0 <= outcome.retries <= retry.max_attempts - 1
        assert (outcome.failure_reason in _BATCH_FAULTS) == outcome.failed
    # Spans never run backwards, and (at sample_rate=1) every request's
    # lane closes with exactly one ``request`` span; a request that was
    # launched — completed or failed — also shows the time it queued.
    assert all(span.end_s >= span.start_s for span in report.trace.spans)
    for outcome in report.outcomes:
        lane = report.trace.by_trace_id(outcome.request_id)
        assert [s.cat for s in lane].count("request") == 1
        if outcome.status != "shed":
            assert [s.cat for s in lane].count("queue") == 1
        assert [s.cat for s in lane].count("execute") == int(outcome.completed)


@pytest.mark.parametrize("workers", [1, 2])
def test_lifecycle_invariants_hold_over_seeded_fault_schedules(workers):
    requests = _requests(n=48)
    server = _server("virtual", compute_time_fn=FIXED_COST, workers=workers)
    baseline = server.serve(requests)
    assert baseline.completed == len(requests)
    retry = RetryPolicy(max_attempts=3, task_timeout_s=0.01, backoff_s=1e-3,
                        respawn_backoff_s=1e-3)
    statuses: set[str] = set()
    for seed in range(64):
        report = server.serve(
            requests, faults=_seeded_plan(seed, workers), retry=retry,
            # odd seeds also gate arrivals behind a circuit breaker
            breaker=(BreakerPolicy(window=8, min_samples=4, cooldown_s=0.02)
                     if seed % 2 else None),
            telemetry=TelemetryConfig(sample_rate=1.0))
        _assert_lifecycle_invariants(report, requests, baseline, retry)
        statuses |= {o.status for o in report.outcomes}
    server.close()
    # The sweep must actually reach every terminal state.
    assert statuses == {"completed", "shed", "failed"}


def test_lifecycle_invariants_hold_on_the_wall_clock_thread_backend():
    requests = _requests(n=48)
    virtual = _server("virtual", compute_time_fn=FIXED_COST)
    baseline = virtual.serve(requests)
    virtual.close()
    retry = RetryPolicy(max_attempts=2, task_timeout_s=0.01,
                        respawn_backoff_s=1e-3)
    # Every lenet task errors on top of the seeded schedule, so both the
    # requeue and the retries-exhausted branches are certain to run.
    plan = FaultPlan(events=(*_seeded_plan(5, 2).events,
                             FaultEvent("task_error", model="lenet_nano",
                                        count=4096)), seed=5)
    server = _server("real", backend="thread", workers=2)
    report = server.serve(requests, faults=plan, retry=retry,
                          telemetry=TelemetryConfig(sample_rate=1.0))
    server.close()
    _assert_lifecycle_invariants(report, requests, baseline, retry)
    assert report.metrics["fleet"]["failed"] > 0
    assert report.metrics["fleet"]["retries"] > 0


# ---------------------------------------------------------------------- #
# Satellite: unsupervised typed errors (no retry -> no silent hang)
# ---------------------------------------------------------------------- #
def test_process_crash_without_retry_raises_typed_error():
    requests = _requests(n=24)
    plan = FaultPlan(events=(FaultEvent("worker_crash", worker=0,
                                        task_index=0),))
    server = _server("real", backend="process", workers=2)
    with pytest.raises(WorkerCrashed):
        server.serve(requests, faults=plan)
    server.close()
    assert not mp.active_children()


def test_process_backend_run_times_out_instead_of_blocking():
    from repro.serving import ProcessFleetBackend

    server = _server("real", backend="process", workers=1)
    engine = server.cache.get("lenet_nano").engine
    paths, tmpdir = server._export_artifacts(["lenet_nano"])
    specs = {"lenet_nano": {"input_shape": tuple(engine.input_shape),
                            "output_shape": tuple(engine.output_shape)}}
    backend = ProcessFleetBackend(specs, paths, workers=1,
                                  task_timeout_s=0.5)
    backend.start()
    try:
        images = [np.zeros((4, 3, IMAGE_SIZE, IMAGE_SIZE))]
        start = time.perf_counter()
        with pytest.raises(WorkerTimeout):
            backend.run(0, "lenet_nano", images, fault=("task_hang", 30.0))
        assert time.perf_counter() - start < 10.0   # detected, not waited out
        assert backend.fault_stats()["timeouts"] == 1
    finally:
        start = time.perf_counter()
        backend.close()
        closed_in = time.perf_counter() - start
        if tmpdir is not None:
            tmpdir.cleanup()
        server.close()
    # The worker is still asleep in the hang: close terminates it at once
    # instead of sending a stop it cannot read and waiting out the join.
    assert closed_in < 2.0
    assert not mp.active_children()


def test_process_backend_respawn_is_bounded():
    from repro.faults import RespawnExhausted
    from repro.serving import ProcessFleetBackend

    server = _server("real", backend="process", workers=1)
    engine = server.cache.get("lenet_nano").engine
    paths, tmpdir = server._export_artifacts(["lenet_nano"])
    specs = {"lenet_nano": {"input_shape": tuple(engine.input_shape),
                            "output_shape": tuple(engine.output_shape)}}
    backend = ProcessFleetBackend(specs, paths, workers=1, max_respawns=1,
                                  respawn_backoff_s=0.0)
    backend.start()
    try:
        first = backend.respawn(0)
        assert first > 0.0
        with pytest.raises(RespawnExhausted):
            backend.respawn(0)
        assert backend.fault_stats()["respawns"] == 1
        # The respawned worker still serves work.
        images = [np.zeros((2, 3, IMAGE_SIZE, IMAGE_SIZE))]
        group_codes, executions, _, _ = backend.run(0, "lenet_nano", images)
        assert executions == 1 and group_codes[0].shape[0] == 2
    finally:
        backend.close()
        if tmpdir is not None:
            tmpdir.cleanup()
        server.close()
    assert not mp.active_children()


# ---------------------------------------------------------------------- #
# Satellite: close() never leaks shared-memory arenas
# ---------------------------------------------------------------------- #
def test_process_backend_close_unlinks_arenas_even_after_a_crash():
    requests = _requests(n=24)
    plan = FaultPlan(events=(FaultEvent("worker_crash", worker=0,
                                        task_index=0),))
    server = _server("real", backend="process", workers=2)

    captured: list[str] = []
    from repro.serving import procfleet as procfleet_mod
    original_start = procfleet_mod.ProcessFleetBackend.start

    def capturing_start(self):
        original_start(self)
        captured.extend(shm.name for shm in (*self._in_shms, *self._out_shms))

    procfleet_mod.ProcessFleetBackend.start = capturing_start
    try:
        with pytest.raises(WorkerCrashed):
            server.serve(requests, faults=plan)
    finally:
        procfleet_mod.ProcessFleetBackend.start = original_start
    server.close()
    assert len(captured) == 4   # in+out arena per worker
    for name in captured:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
    assert not mp.active_children()


# ---------------------------------------------------------------------- #
# Satellite: pacer teardown on mid-serve failure
# ---------------------------------------------------------------------- #
def test_open_loop_pacer_abort_interrupts_the_release_sleep():
    reqs = [Request(request_id=i, model="lenet_nano", arrival_s=10.0 * (i + 1),
                    image=np.zeros((3, IMAGE_SIZE, IMAGE_SIZE)))
            for i in range(3)]
    pacer = OpenLoopPacer(reqs)
    released: list[int] = []

    def drain():
        for req, _ in pacer:
            released.append(req.request_id)

    thread = threading.Thread(target=drain, daemon=True)
    start = time.perf_counter()
    thread.start()
    time.sleep(0.05)
    pacer.abort()
    thread.join(timeout=2.0)
    assert not thread.is_alive()
    assert time.perf_counter() - start < 5.0   # did not doze to t=10s
    assert released == []


def test_mid_serve_failure_aborts_open_loop_ingestion():
    # Arrivals stretch far beyond the failure instant: if the dead worker
    # did not abort the pacer, serve() would sleep out the full schedule.
    reqs = [Request(request_id=i, model="lenet_nano",
                    arrival_s=0.0 if i < 8 else 30.0 + i,
                    image=np.random.default_rng(i).standard_normal(
                        (3, IMAGE_SIZE, IMAGE_SIZE)))
            for i in range(12)]
    plan = FaultPlan(events=(FaultEvent("task_error", count=64),))
    server = _server("real", backend="thread", workers=2)
    start = time.perf_counter()
    with pytest.raises(FaultError) as excinfo:
        server.serve(reqs, pacing="open", faults=plan)
    assert excinfo.value.kind == "task_error"
    assert time.perf_counter() - start < 20.0
    server.close()


# ---------------------------------------------------------------------- #
# Satellite: disk-tier quarantine of corrupt artifacts
# ---------------------------------------------------------------------- #
def test_plan_cache_quarantines_corrupt_artifacts(tmp_path):
    from repro.deploy import compile as deploy_compile

    config = COMPILE_CONFIG.with_overrides(batch_size=2, image_size=IMAGE_SIZE)
    cache = PlanCache(2, compile_fn=lambda name: deploy_compile(name, config),
                      artifact_dir=tmp_path, key_fn=lambda name: "k")
    entry = cache.get("lenet_nano")
    path = cache.artifact_path("lenet_nano")
    assert path.exists() and cache.disk_stores == 1

    # Torn write: the artifact is garbage.  The next disk-tier load must
    # quarantine it aside and fall through to a clean recompile.
    path.write_bytes(b"\x00garbage\x00")
    assert cache.evict("lenet_nano")
    recompiled = cache.get("lenet_nano")
    assert cache.disk_quarantined == 1
    assert cache.disk_errors == 1
    assert cache.recompiles == 1
    assert cache.stats()["disk_quarantined"] == 1
    quarantined = path.with_name(path.name + ".corrupt")
    assert quarantined.exists()
    assert quarantined.read_bytes() == b"\x00garbage\x00"
    # the recompile re-stored a good artifact at the live path
    assert path.exists() and path.stat().st_size > 64
    rng = np.random.default_rng(0)
    images = rng.standard_normal((2, 3, IMAGE_SIZE, IMAGE_SIZE))
    np.testing.assert_array_equal(entry.engine.run(images).codes,
                                  recompiled.engine.run(images).codes)


def test_artifact_corrupt_fault_exercises_quarantine_end_to_end(tmp_path):
    requests = _requests(n=16)
    server = _server("virtual", compute_time_fn=FIXED_COST,
                     artifact_dir=tmp_path)
    baseline = server.serve(requests)
    plan = FaultPlan(events=(FaultEvent("artifact_corrupt",
                                        model="lenet_nano"),))
    report = server.serve(requests, faults=plan)
    assert report.faults["artifacts_corrupted"] == {"lenet_nano": 1}
    assert report.cache["disk_quarantined"] == 1
    assert report.completed == len(requests)
    assert _assert_codes_match(report, baseline) == len(requests)
    server.close()


# ---------------------------------------------------------------------- #
# Chaos acceptance: a live 2-process fleet survives crash + hang
# ---------------------------------------------------------------------- #
def test_chaos_acceptance_process_fleet_recovers_bit_identical():
    requests = _requests(n=40)
    virtual = _server("virtual", compute_time_fn=FIXED_COST)
    baseline = virtual.serve(requests)
    virtual.close()
    assert baseline.completed == len(requests)

    plan = _chaos_plan()
    server = _server("real", backend="process", workers=2)
    report = server.serve(requests, faults=plan, retry=RETRY,
                          telemetry=TelemetryConfig(sample_rate=1.0))
    server.close()

    # Zero hung calls: every admitted request reached a terminal status.
    assert len(report.outcomes) == len(requests)
    assert all(o.status in ("completed", "failed", "shed")
               for o in report.outcomes)
    # Bit-identical successful outputs vs. the fault-free virtual run.
    assert _assert_codes_match(report, baseline) > 0

    faults = report.faults
    supervisor = faults["supervisor"]
    assert supervisor["crashes"] >= 1
    assert supervisor["timeouts"] >= 1
    assert supervisor["respawns"] >= 2
    assert len(supervisor["respawn_s"]) == supervisor["respawns"]
    assert all(s > 0.0 for s in supervisor["respawn_s"])
    # One draw per task, in the parent: the fleet observes exactly the
    # schedule the injector handed out, and no model degrades.
    assert faults["observed"] == faults["injected"]["injected"] == {
        "worker_crash": 1, "task_hang": 1, "task_error": 1}
    assert faults["degraded_models"] == []
    assert faults["retried_requests"] > 0
    assert report.metrics["fleet"]["retries"] > 0

    # Recovery is visible in the Chrome trace: fault + respawn spans.
    cats = {span.cat for span in report.trace.spans}
    names = {span.name for span in report.trace.spans}
    assert "fault" in cats
    assert "worker_crash" in names
    assert "task_hang" in names
    assert "respawn" in names

    # Nothing leaked: no worker processes, no shared-memory arenas.
    assert not mp.active_children()
    completed = [o for o in report.outcomes if o.completed]
    retried = [o for o in completed if o.retries > 0]
    assert retried, "some completed request must have been retried"


def test_floating_event_fires_count_times_per_serve_on_the_process_fleet():
    # The parent draws every task fault once, so a floating event fires
    # ``count`` times per serve — not once per worker process.
    requests = _requests(n=32)
    plan = FaultPlan(events=(FaultEvent("task_error", count=1),))
    server = _server("real", backend="process", workers=2)
    report = server.serve(requests, faults=plan, retry=RETRY)
    server.close()
    assert report.faults["observed"] == {"task_error": 1}
    assert report.faults["injected"]["injected"] == {"task_error": 1}
    assert report.completed == len(requests)
    assert not mp.active_children()


@pytest.mark.parametrize("seed", [3, 25])
def test_seeded_fault_schedules_replay_on_the_live_process_fleet(seed):
    requests = _requests(n=48)
    virtual = _server("virtual", compute_time_fn=FIXED_COST)
    baseline = virtual.serve(requests)
    virtual.close()
    retry = RetryPolicy(max_attempts=3, task_timeout_s=0.5, backoff_s=1e-3,
                        respawn_backoff_s=1e-3)
    server = _server("real", backend="process", workers=2)
    # Hangs outlast the recv deadline, so each one is a timeout + respawn.
    report = server.serve(requests, faults=_seeded_plan(seed, 2, hang_s=1.0),
                          retry=retry,
                          telemetry=TelemetryConfig(sample_rate=1.0))
    server.close()
    _assert_lifecycle_invariants(report, requests, baseline, retry)
    assert report.faults["observed"] == report.faults["injected"]["injected"]
    assert not mp.active_children()


def test_degradation_falls_back_to_in_process_execution():
    requests = _requests(n=32)
    # Every lenet task in the worker processes errors; after degrade_after
    # consecutive failures the model must fall back to the in-process path
    # and still complete everything.
    plan = FaultPlan(events=(FaultEvent("task_error", model="lenet_nano",
                                        count=4096),))
    retry = RetryPolicy(max_attempts=8, task_timeout_s=0.75,
                        degrade_after=2, respawn_backoff_s=0.01)
    server = _server("real", backend="process", workers=2)
    report = server.serve(requests, faults=plan, retry=retry)
    server.close()
    assert "lenet_nano" in report.faults["degraded_models"]
    lenet = [o for o in report.outcomes if o.model == "lenet_nano"]
    assert lenet and all(o.completed for o in lenet)
    assert not mp.active_children()
