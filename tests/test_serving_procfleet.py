"""Process fleet backend, load-generation pacing, and priority admission.

The multiprocess backend's acceptance claim is *bit-identical* output codes
against the virtual-clock loop — per-process engines bootstrapped from
``.rpa`` artifacts plus a shared-memory data plane must be an execution
detail, never a numerics change.  Pacing tests use injectable clocks so the
open/closed-loop semantics are asserted deterministically; priority tests
drive the admission controller with a fixed cost model on the virtual
clock.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.deploy import CompileConfig, ServeConfig
from repro.deploy import compile as deploy_compile
from repro.serving import (
    AdmissionController,
    AdmissionPolicy,
    BatchingPolicy,
    ClosedLoopPacer,
    DynamicBatcher,
    EwmaCostModel,
    FleetServer,
    OpenLoopPacer,
    ProcessFleetBackend,
    Request,
    Scenario,
    TelemetryConfig,
    fleet_input_shapes,
    generate_requests,
)

FLEET = ["lenet_nano", "mobilenet_v1_nano"]
IMAGE_SIZE = 8
BATCH = 8
COMPILE_CONFIG = CompileConfig().with_overrides(calibration_samples=8,
                                                calibration_batch_size=4)

#: deterministic per-batch compute cost (seconds) for the virtual clock
FIXED_COST = lambda model, fill: 2e-3


def _burst_requests(seed: int = 3, rate_rps: float = 120.0, duration_s: float = 0.5):
    scenario = Scenario("burst", "poisson", duration_s=duration_s,
                        model_mix=(("lenet_nano", 0.5), ("mobilenet_v1_nano", 0.5)),
                        slo_ms=None, params=dict(rate_rps=rate_rps))
    return generate_requests(scenario, fleet_input_shapes(FLEET, IMAGE_SIZE),
                             seed=seed)


def _server(execution: str = "virtual", **kwargs) -> FleetServer:
    kwargs.setdefault("admission", AdmissionPolicy(max_queue_depth=None,
                                                   slo_shed=False))
    kwargs.setdefault("policy", BatchingPolicy.dynamic(BATCH, 5e-3))
    return FleetServer(FLEET, batch_size=BATCH, image_size=IMAGE_SIZE,
                       compile_config=COMPILE_CONFIG, execution=execution,
                       **kwargs)


def _request(request_id: int, arrival_s: float, priority: int = 0,
             deadline_s: float | None = None, model: str = "lenet_nano") -> Request:
    return Request(request_id=request_id, model=model, arrival_s=arrival_s,
                   image=np.zeros((3, IMAGE_SIZE, IMAGE_SIZE)),
                   deadline_s=deadline_s, priority=priority)


# ---------------------------------------------------------------------- #
# Tentpole: the process backend is bit-identical to the virtual clock
# ---------------------------------------------------------------------- #
def test_process_backend_codes_bit_identical_to_virtual():
    requests = _burst_requests(seed=3)
    virtual = _server("virtual", compute_time_fn=FIXED_COST).serve(requests)
    assert virtual.completed == len(requests)

    server = _server("real", backend="process", workers=2)
    report = server.serve(requests)
    assert report.backend == "process"
    assert report.pacing == "flood"
    assert report.execution == "real"
    assert report.completed == len(requests)
    assert report.shed == 0

    by_id = {o.request_id: o for o in virtual.outcomes}
    seen_workers = set()
    for outcome in report.outcomes:
        reference = by_id[outcome.request_id]
        assert outcome.codes.dtype == reference.codes.dtype
        np.testing.assert_array_equal(outcome.codes, reference.codes)
        seen_workers.add(outcome.worker_index)
    # Both worker processes actually served traffic.
    assert seen_workers == {0, 1}
    # Wall-clock goodput is measured, not simulated.
    assert report.fleet["goodput_rps"] > 0
    assert report.wall_time_s > 0


def test_process_backend_requires_real_execution():
    with pytest.raises(ValueError, match="requires execution='real'"):
        FleetServer(FLEET, batch_size=BATCH, image_size=IMAGE_SIZE,
                    compile_config=COMPILE_CONFIG, backend="process", warm=False)
    with pytest.raises(ValueError, match="backend"):
        FleetServer(FLEET, batch_size=BATCH, image_size=IMAGE_SIZE,
                    compile_config=COMPILE_CONFIG, backend="rocket", warm=False)


def test_process_fleet_backend_validates_before_spawning():
    specs = {"lenet_nano": {"input_shape": (BATCH, 3, IMAGE_SIZE, IMAGE_SIZE),
                            "output_shape": (BATCH, 10)}}
    paths = {"lenet_nano": "/nonexistent/lenet.rpa"}
    with pytest.raises(ValueError, match="workers"):
        ProcessFleetBackend(specs, paths, workers=0)
    with pytest.raises(ValueError, match="artifact path"):
        ProcessFleetBackend(specs, {}, workers=1)
    backend = ProcessFleetBackend(specs, paths, workers=1)
    with pytest.raises(RuntimeError, match="not running"):
        backend.run(0, "lenet_nano", [np.zeros((1, 3, IMAGE_SIZE, IMAGE_SIZE))])
    backend.close()   # idempotent on a never-started backend


# ---------------------------------------------------------------------- #
# Open-loop vs closed-loop pacing
# ---------------------------------------------------------------------- #
def test_open_loop_pacer_releases_on_the_scenario_clock():
    clock = {"t": 0.0}
    sleeps: list[float] = []

    def fake_clock() -> float:
        return clock["t"]

    def fake_sleep(delta: float) -> None:
        sleeps.append(delta)
        clock["t"] += delta

    requests = [_request(i, arrival) for i, arrival in
                enumerate([0.0, 0.1, 0.3])]
    pacer = OpenLoopPacer(requests, time_scale=2.0, clock=fake_clock,
                          sleep_fn=fake_sleep)
    released = [(req.request_id, now) for req, now in pacer]
    # Releases land exactly at arrival * time_scale — completions never
    # entered the picture (on_completion was never called).
    assert released == [(0, 0.0), (1, 0.2), (2, 0.6)]
    assert sleeps == pytest.approx([0.2, 0.4])
    assert pacer.released == {0: 0.0, 1: 0.2, 2: 0.6}
    pacer.on_completion(0)   # open loop: a documented no-op
    with pytest.raises(ValueError, match="time_scale"):
        OpenLoopPacer(requests, time_scale=0.0)


def test_closed_loop_pacer_gates_releases_on_completions():
    requests = [_request(i, float(i)) for i in range(4)]
    pacer = ClosedLoopPacer(requests, concurrency=2, clock=lambda: 0.0)
    stream = iter(pacer)
    first, _ = next(stream)
    second, _ = next(stream)
    assert pacer.max_outstanding == 2

    # The third release must block until a completion frees a slot.
    released: list[int] = []
    consumer = threading.Thread(
        target=lambda: released.extend(req.request_id for req, _ in stream),
        daemon=True)
    consumer.start()
    consumer.join(timeout=0.2)
    assert consumer.is_alive(), "release 3 must wait for a completion"
    assert released == []
    pacer.on_completion(first.request_id)
    pacer.on_completion(second.request_id)
    consumer.join(timeout=5.0)
    assert not consumer.is_alive()
    assert released == [2, 3]
    assert pacer.max_outstanding == 2
    with pytest.raises(ValueError, match="concurrency"):
        ClosedLoopPacer(requests, concurrency=0)


def test_closed_loop_pacer_abort_unblocks_the_release_loop():
    requests = [_request(i, float(i)) for i in range(3)]
    pacer = ClosedLoopPacer(requests, concurrency=1, clock=lambda: 0.0)
    stream = iter(pacer)
    next(stream)
    released: list[int] = []
    consumer = threading.Thread(
        target=lambda: released.extend(req.request_id for req, _ in stream),
        daemon=True)
    consumer.start()
    pacer.abort()
    consumer.join(timeout=5.0)
    assert not consumer.is_alive()
    assert released == []


def test_real_serving_with_open_and_closed_pacing_matches_virtual_codes():
    requests = _burst_requests(seed=5, rate_rps=80.0, duration_s=0.4)
    virtual = _server("virtual", compute_time_fn=FIXED_COST).serve(requests)
    reference = {o.request_id: o.codes for o in virtual.outcomes}

    open_report = _server("real", workers=2).serve(
        requests, pacing="open", time_scale=0.25)
    assert open_report.pacing == "open"
    assert open_report.backend == "thread"
    assert open_report.completed == len(requests)
    for outcome in open_report.outcomes:
        np.testing.assert_array_equal(outcome.codes,
                                      reference[outcome.request_id])
        # Paced serving stamps the wall-clock release each request saw.
        assert outcome.release_s is not None and outcome.release_s >= 0.0
        assert outcome.latency_s >= 0.0

    pacer = ClosedLoopPacer(requests, concurrency=3)
    closed_report = _server("real", workers=2).serve(requests, pacing=pacer)
    assert closed_report.pacing == "closed"
    assert closed_report.completed == len(requests)
    assert pacer.max_outstanding <= 3
    for outcome in closed_report.outcomes:
        np.testing.assert_array_equal(outcome.codes,
                                      reference[outcome.request_id])


def test_paced_release_is_stamped_on_the_latency_clock():
    """Releases sit on ``serve_start``'s origin, not on the pacer's own clock:
    a pacer that starts late must not push its delay into every latency.

    Spans share that one origin: every completed request's ``request`` span
    starts at its release (0.0 under flood, which offers the whole stream
    at once) and ends at release + latency, to the bit."""
    late_s = 0.3

    class LatePacer(OpenLoopPacer):
        def __iter__(self):
            time.sleep(late_s)           # the pacer's clock starts here
            yield from super().__iter__()

    requests = [_request(i, 0.01 * i) for i in range(6)]
    server = _server("real", telemetry=TelemetryConfig(sample_rate=1.0))
    paced = server.serve(requests, pacing=LatePacer(requests))
    assert paced.completed == len(requests)
    for outcome in paced.outcomes:
        assert outcome.release_s >= late_s
        assert outcome.latency_s < late_s
    flood = server.serve(requests, pacing="flood")
    assert flood.completed == len(requests)
    for report in (paced, flood):
        spans = {span.trace_id: span for span in report.trace.spans
                 if span.name == "request"}
        for outcome in report.outcomes:
            release = outcome.release_s if report is paced else 0.0
            span = spans[outcome.request_id]
            assert span.start_s == release
            assert span.end_s == release + outcome.latency_s


def test_measured_costs_feed_the_bucket_that_ran_them():
    """Fills 5..7 of a batch-8 engine run on the engine itself, so their
    measured cost feeds the full-batch entry admission prices at."""
    server = _server("virtual")
    assert [server._bucket_fill(fill) for fill in range(1, BATCH + 1)] == [
        1, 2, 3, 4, None, None, None, None]
    requests = _burst_requests(rate_rps=2000.0, duration_s=0.05)
    report = server.serve(requests)
    assert report.completed == len(requests)
    buckets = {bucket for _, bucket in server.cost_model._estimates}
    assert buckets <= {None, 1, 2, 4}
    assert report.cost_model_s.keys() == set(FLEET)


def test_virtual_execution_rejects_non_flood_pacing():
    server = _server("virtual", compute_time_fn=FIXED_COST)
    requests = [_request(0, 0.0)]
    with pytest.raises(ValueError, match="execution='real'"):
        server.serve(requests, pacing="open")
    with pytest.raises(ValueError, match="pacing"):
        _server("real").serve(requests, pacing="nope")
    # Flood is the default and spelled "flood" is accepted everywhere.
    report = server.serve(requests, pacing="flood")
    assert report.completed == 1


# ---------------------------------------------------------------------- #
# Priority classes: lowest tier preempted first under pressure
# ---------------------------------------------------------------------- #
def test_shed_candidate_picks_lowest_tier_youngest_first():
    queue = DynamicBatcher("lenet_nano", BatchingPolicy.full_batch(8))
    low_old = _request(0, 0.0, priority=1)
    low_new = _request(1, 0.5, priority=1)
    mid = _request(2, 0.2, priority=3)
    for req in (low_old, low_new, mid):
        queue.push(req)
    # Lowest tier first; youngest within the tier.
    assert queue.shed_candidate(below_priority=5) is low_new
    assert queue.shed_candidate(below_priority=5, exclude=[low_new]) is low_old
    assert queue.shed_candidate(below_priority=5,
                                exclude=[low_new, low_old]) is mid
    # Equal priority is never preempted.
    assert queue.shed_candidate(below_priority=1) is None
    queue.remove(low_new)
    assert queue.depth == 2
    with pytest.raises(ValueError, match="not queued"):
        queue.remove(low_new)


def test_admission_preempts_lower_priority_on_full_queue():
    policy = AdmissionPolicy(max_queue_depth=2, slo_shed=False)
    controller = AdmissionController(policy, EwmaCostModel())
    queues = {"lenet_nano": DynamicBatcher("lenet_nano",
                                           BatchingPolicy.full_batch(8))}
    batching = BatchingPolicy.full_batch(8)
    filler = [_request(0, 0.0, priority=0), _request(1, 0.001, priority=0)]
    for req in filler:
        queues["lenet_nano"].push(req)

    # Equal priority: FIFO admission degrades to a plain reject.
    same = controller.consider(_request(2, 0.002, priority=0), 0.002, 0.0,
                               queues, batching)
    assert not same.admitted and same.reason == "queue_full"
    assert not same.evicted and queues["lenet_nano"].depth == 2

    # Higher priority: the youngest lowest-tier request is evicted.
    vip = controller.consider(_request(3, 0.003, priority=5), 0.003, 0.0,
                              queues, batching)
    assert vip.admitted
    assert [victim.request_id for victim in vip.evicted] == [1]


def test_admission_preempts_in_tier_order_under_slo_pressure():
    policy = AdmissionPolicy(max_queue_depth=None, slo_shed=True)
    cost = EwmaCostModel()
    cost.prime("lenet_nano", 0.01)               # 10ms per batch
    controller = AdmissionController(policy, cost)
    batching = BatchingPolicy.full_batch(1)      # one request = one batch
    queues = {"lenet_nano": DynamicBatcher("lenet_nano", batching)}
    tier1 = _request(0, 0.0, priority=1)
    tier2 = _request(1, 0.001, priority=2)
    for req in (tier1, tier2):
        queues["lenet_nano"].push(req)

    # Backlog prices 2 batches + own batch = 30ms > 25ms deadline; evicting
    # the lowest tier (then the next) brings it under.
    vip = controller.consider(_request(2, 0.002, priority=9, deadline_s=0.025),
                              0.002, 0.0, queues, batching)
    assert vip.admitted
    assert [victim.priority for victim in vip.evicted] == [1]
    assert vip.predicted_latency_s <= 0.025

    # A rejection must leave the queue untouched (no half-applied evictions).
    hopeless = controller.consider(
        _request(3, 0.003, priority=9, deadline_s=0.001), 0.003, 0.0,
        queues, batching)
    assert not hopeless.admitted and hopeless.reason == "slo"
    assert not hopeless.evicted
    assert queues["lenet_nano"].depth == 2


def test_priority_shedding_end_to_end_on_the_virtual_clock():
    # Capacity ~ one 20ms batch of 1 at a time; flood 30 requests in 30ms.
    # Low-priority requests must be the ones preempted.
    rng = np.random.default_rng(0)
    requests = [
        Request(i, "lenet_nano", arrival_s=i * 1e-3,
                image=rng.standard_normal((3, IMAGE_SIZE, IMAGE_SIZE)),
                deadline_s=0.1, priority=(1 if i % 3 == 0 else 0))
        for i in range(30)
    ]
    server = FleetServer(["lenet_nano"], batch_size=BATCH, image_size=IMAGE_SIZE,
                         compile_config=COMPILE_CONFIG,
                         policy=BatchingPolicy.dynamic(1, 1e-3),
                         admission=AdmissionPolicy(max_queue_depth=4),
                         compute_time_fn=lambda model, fill: 0.02)
    report = server.serve(requests)
    shed = [o for o in report.outcomes if not o.completed]
    assert shed, "overload must shed"
    preempted = [o for o in shed if o.shed_reason == "preempted"]
    assert preempted, "priority pressure must preempt queued low-tier requests"
    assert all(o.priority == 0 for o in preempted)
    # Priority-1 completions beat priority-0 completion rate.
    by_tier = {tier: [o for o in report.outcomes if o.priority == tier]
               for tier in (0, 1)}
    rate = {tier: sum(o.completed for o in outs) / len(outs)
            for tier, outs in by_tier.items()}
    assert rate[1] > rate[0]
    # Disabling priority_shed removes preemptions entirely.
    flat = FleetServer(["lenet_nano"], batch_size=BATCH, image_size=IMAGE_SIZE,
                       compile_config=COMPILE_CONFIG,
                       policy=BatchingPolicy.dynamic(1, 1e-3),
                       admission=AdmissionPolicy(max_queue_depth=4,
                                                 priority_shed=False),
                       compute_time_fn=lambda model, fill: 0.02)
    flat_report = flat.serve(requests)
    assert all(o.shed_reason != "preempted" for o in flat_report.outcomes
               if not o.completed)


def test_scenario_priority_mix_draws_classes():
    scenario = Scenario("mixed", "poisson", duration_s=1.0,
                        model_mix=(("lenet_nano", 1.0),),
                        params=dict(rate_rps=100.0),
                        priority_mix=((0, 0.5), (2, 0.5)))
    requests = generate_requests(scenario,
                                 fleet_input_shapes(["lenet_nano"], IMAGE_SIZE),
                                 seed=0)
    tiers = {req.priority for req in requests}
    assert tiers == {0, 2}
    # Same seed reproduces the same class assignment.
    again = generate_requests(scenario,
                              fleet_input_shapes(["lenet_nano"], IMAGE_SIZE),
                              seed=0)
    assert [r.priority for r in requests] == [r.priority for r in again]


# ---------------------------------------------------------------------- #
# Deployment-level carry-overs: tape profiling, multi-deployment preload
# ---------------------------------------------------------------------- #
def _deploy(name: str, batch_size: int = 2):
    return deploy_compile(name, COMPILE_CONFIG.with_overrides(
        image_size=IMAGE_SIZE, batch_size=batch_size))


def test_deployment_profile_reports_the_tape_it_runs():
    deployment = _deploy("lenet_nano")
    tape = deployment.profile(repeats=2)
    assert tape.total_ms > 0
    assert tape.steps and all(t.mean_ms >= 0 for t in tape.steps)
    assert abs(sum(t.share for t in tape.steps) - 1.0) < 1e-9
    # The rows are instructions, not plan steps: they carry instruction
    # kinds (stack_fill / chain / kernel calls) instead of plan ops, fused
    # elementwise chains show up as single "chain" rows, and compute steps
    # name the kernel the rule bound.
    assert "chain" in {t.op for t in tape.steps}
    assert ({t.name: t.variant for t in tape.steps if t.variant}
            == deployment.kernel_choices)
    explicit = deployment.profile(repeats=2, level="tape")
    assert [(t.name, t.op) for t in explicit.steps] == [(t.name, t.op) for t in tape.steps]
    with pytest.raises(ValueError, match="level"):
        deployment.profile(level="flamegraph")


def test_deployment_profile_tape_requires_tape_mode():
    deployment = deploy_compile("lenet_nano", COMPILE_CONFIG.with_overrides(
        image_size=IMAGE_SIZE, batch_size=2, mode="steps", optimize=False))
    assert ([t.name for t in deployment.profile(repeats=1).steps]
            == [step.name for step in deployment.plan.steps])
    with pytest.raises(ValueError, match="tape-mode"):
        deployment.profile(level="tape")


def test_deployment_serve_preloads_multiple_deployments():
    first = _deploy("lenet_nano", batch_size=4)
    second = _deploy("mobilenet_v1_nano", batch_size=4)
    server = first.serve(ServeConfig(max_queue_depth=None, slo_shed=False),
                         compute_time_fn=FIXED_COST, preload=[second])
    assert server.fleet == ["lenet_nano", "mobilenet_v1_nano"]

    scenario = Scenario("mix", "poisson", duration_s=0.4,
                        model_mix=(("lenet_nano", 0.5), ("mobilenet_v1_nano", 0.5)),
                        slo_ms=None, params=dict(rate_rps=100.0))
    requests = generate_requests(scenario, fleet_input_shapes(FLEET, IMAGE_SIZE),
                                 seed=1)
    report = server.serve(requests)
    assert report.completed == len(requests)
    # Both models were seeded: zero compiles happened inside the server.
    assert report.cache["misses"] == 0
    assert report.cache["total_compile_s"] == 0.0

    with pytest.raises(ValueError, match="duplicate"):
        first.serve(preload=[first])
