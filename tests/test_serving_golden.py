"""Golden digests for the virtual clock: seeded serves are byte-reproducible.

A seeded virtual serve with a fixed ``compute_time_fn`` is a pure function
of its inputs — across interpreters, not just within one — so a refactor of
the request lifecycle can be held to *byte-identical* reports.  Each digest
is a sha1 over ``report.metrics``, ``cost_model_s``, ``policy``, every
outcome (codes by hash) and every non-``tape`` span tuple ``(name, cat,
start_s, end_s, lane, trace_id)``.  ``report.cache`` (compile seconds) and
``wall_time_s`` are the only non-reproducible fields and are excluded; span
``args`` are excluded so a span may gain an argument without a re-record.

The literals below were recorded at commit e965339 — the parent of the PR
that moved both serve loops onto the shared lifecycle session — with::

    PYTHONPATH=src python tests/test_serving_golden.py

Re-record only for an intended change of serving *policy*, never to make a
refactor pass.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.deploy import CompileConfig
from repro.faults import BreakerPolicy, FaultPlan, RetryPolicy
from repro.serving import (
    AdmissionPolicy,
    BatchingPolicy,
    FleetServer,
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
MIX = (("lenet_nano", 0.5), ("mobilenet_v1_nano", 0.5))
HALF_SAMPLED = TelemetryConfig(sample_rate=0.5)


def _fixed_cost(model: str, fill: int) -> float:
    return 2e-3


def _stream(rate_rps: float, slo_ms: float | None, priority_mix=None,
            duration_s: float = 0.5):
    scenario = Scenario("golden", "poisson", duration_s=duration_s, model_mix=MIX,
                        slo_ms=slo_ms, params=dict(rate_rps=rate_rps),
                        priority_mix=priority_mix)
    return generate_requests(scenario, fleet_input_shapes(FLEET, IMAGE_SIZE),
                             seed=11)


#: scenario -> (request stream, FleetServer kwargs, serve kwargs)
SCENARIOS = {
    "plain": lambda: (
        _stream(400.0, slo_ms=250.0), {}, dict(telemetry=HALF_SAMPLED)),
    "overload_slo_shed": lambda: (
        _stream(12000.0, slo_ms=20.0, duration_s=0.125), {},
        dict(telemetry=HALF_SAMPLED)),
    "priority_preemption": lambda: (
        _stream(3000.0, slo_ms=None, priority_mix=((0, 0.6), (1, 0.3), (2, 0.1))),
        dict(admission=AdmissionPolicy(max_queue_depth=6, slo_shed=False)),
        dict(telemetry=HALF_SAMPLED)),
    "queue_full": lambda: (
        _stream(3000.0, slo_ms=None),
        dict(admission=AdmissionPolicy(max_queue_depth=6, slo_shed=False,
                                       priority_shed=False)),
        dict(telemetry=HALF_SAMPLED)),
    "chaos": lambda: (
        _stream(400.0, slo_ms=250.0), {},
        dict(faults=FaultPlan.seeded(7, workers=2, horizon_tasks=48,
                                     crash_rate=0.05, hang_rate=0.05,
                                     error_rate=0.2, slow_rate=0.1),
             retry=RetryPolicy(max_attempts=3, task_timeout_s=0.05,
                               backoff_s=1e-3, respawn_backoff_s=2e-3),
             breaker=BreakerPolicy(window=8, failure_threshold=0.5,
                                   min_samples=4, cooldown_s=0.05),
             telemetry=HALF_SAMPLED)),
}

GOLDEN = {
    ('chaos', 1): '8c6ffdd987e4709cfc32997ee03e52bc93019f5e',
    ('chaos', 2): '41a62bfb3ff6c15d6f254208a8c7ab38bf854ad3',
    ('overload_slo_shed', 1): 'e94b8956e88555cdc02ab9e837cd21b7f17ca7d8',
    ('overload_slo_shed', 2): '29299e1ea3df8e1194bf544c4169b284341868af',
    ('plain', 1): 'ec413122478386ddeea42ebf48a886f260c43109',
    ('plain', 2): '6165f203f451d29b3ad59c97060f75e684cacca7',
    ('priority_preemption', 1): '4f33efa08828e33cd9793b95972f2fd9f1213c98',
    ('priority_preemption', 2): 'bd18524b4e9d2c8c8a3b678b4632eab5e390aecf',
    ('queue_full', 1): 'f4e68a631e3c014b5b67480b1656b3fce3a04c88',
    ('queue_full', 2): '490f67ed717b51677c7f492deaefff7230b94512',
}


def _serve(scenario: str, workers: int):
    requests, server_kwargs, serve_kwargs = SCENARIOS[scenario]()
    server = FleetServer(FLEET, batch_size=BATCH, image_size=IMAGE_SIZE,
                         policy=BatchingPolicy.dynamic(BATCH, 5e-3),
                         compile_config=COMPILE_CONFIG,
                         compute_time_fn=_fixed_cost, workers=workers,
                         **server_kwargs)
    try:
        return server.serve(requests, **serve_kwargs)
    finally:
        server.close()


def digest(report) -> str:
    outcomes = [
        (o.request_id, o.model, o.status, o.latency_s, o.shed_reason,
         o.failure_reason, o.batch_index, o.batch_fill, o.worker_index,
         o.priority, o.release_s, o.retries,
         None if o.codes is None else
         hashlib.sha1(o.codes.tobytes() + str(o.codes.dtype).encode()
                      + str(o.codes.shape).encode()).hexdigest())
        for o in report.outcomes]
    spans = [(s.name, s.cat, s.start_s, s.end_s, s.lane, s.trace_id)
             for s in report.trace.spans if s.cat != "tape"]
    payload = json.dumps(
        {"metrics": report.metrics, "cost_model_s": report.cost_model_s,
         "policy": report.policy, "outcomes": outcomes, "spans": spans},
        sort_keys=True)
    return hashlib.sha1(payload.encode()).hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_virtual_serve_matches_its_golden_digest(scenario, workers):
    report = _serve(scenario, workers)
    statuses = {o.status for o in report.outcomes}
    reasons = {o.shed_reason for o in report.outcomes if o.status == "shed"}
    # Each scenario must keep exercising the lifecycle branch it is named for.
    if scenario == "plain":
        assert statuses == {"completed"}
    elif scenario == "overload_slo_shed":
        assert reasons == {"slo"}
    elif scenario == "priority_preemption":
        assert "preempted" in reasons
    elif scenario == "queue_full":
        assert reasons == {"queue_full"}
    else:
        assert "failed" in statuses and report.fleet["retries"] > 0
    assert report.trace.spans
    assert digest(report) == GOLDEN[(scenario, workers)]


if __name__ == "__main__":
    for name in sorted(SCENARIOS):
        for n_workers in (1, 2):
            print(f"    ({name!r}, {n_workers}): "
                  f"{digest(_serve(name, n_workers))!r},")
