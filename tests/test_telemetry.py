"""repro.telemetry: sampling, span recording, exporters and fleet tracing.

The acceptance claim of the telemetry subsystem is end-to-end: one
``FleetServer.serve(..., telemetry=TelemetryConfig(sample_rate=1.0))`` on
the **process backend** must produce valid Chrome trace-event JSON whose
admission/queue/batch/execute spans cover requests that executed in worker
processes, with per-request span nesting and a monotone clock — worker
spans are shipped back over the result queue and clamped into the
parent-observed dispatch window, so clock offset between processes can
never break the invariants.
"""

from __future__ import annotations

import json

import pytest

from repro.deploy import CompileConfig
from repro.deploy import compile as deploy_compile
from repro.serving import (
    AdmissionPolicy,
    BatchingPolicy,
    FleetServer,
    Scenario,
    TelemetryConfig,
    fleet_input_shapes,
    generate_requests,
)
from repro.telemetry import (
    NULL_TRACER,
    Span,
    Tracer,
    attach_tape_sink,
    chrome_trace,
    prometheus_text,
    sample_hash,
    tape_span_args,
)

IMAGE_SIZE = 8
BATCH = 4
COMPILE_CONFIG = CompileConfig().with_overrides(calibration_samples=8,
                                                calibration_batch_size=4)


def _requests(model: str = "lenet_nano", rate_rps: float = 80.0,
              duration_s: float = 0.4, seed: int = 5):
    scenario = Scenario("telemetry", "poisson", duration_s=duration_s,
                        model_mix=((model, 1.0),), slo_ms=None,
                        params=dict(rate_rps=rate_rps))
    return generate_requests(scenario, fleet_input_shapes([model], IMAGE_SIZE),
                             seed=seed)


def _server(**kwargs) -> FleetServer:
    kwargs.setdefault("admission", AdmissionPolicy(max_queue_depth=None,
                                                   slo_shed=False))
    kwargs.setdefault("policy", BatchingPolicy.dynamic(BATCH, 2e-3))
    return FleetServer(["lenet_nano"], batch_size=BATCH, image_size=IMAGE_SIZE,
                       compile_config=COMPILE_CONFIG, **kwargs)


# ---------------------------------------------------------------------- #
# Config + sampling
# ---------------------------------------------------------------------- #
def test_telemetry_config_validates_knobs():
    with pytest.raises(ValueError):
        TelemetryConfig(sample_rate=1.5)
    with pytest.raises(ValueError):
        TelemetryConfig(sample_rate=-0.1)
    with pytest.raises(ValueError):
        TelemetryConfig(max_spans=0)
    with pytest.raises(ValueError):
        TelemetryConfig(snapshot_interval_s=0.0)
    assert not TelemetryConfig().enabled
    assert TelemetryConfig(sample_rate=0.5).enabled


def test_sample_hash_is_deterministic_and_uniform_ish():
    values = [sample_hash(i) for i in range(2000)]
    assert values == [sample_hash(i) for i in range(2000)]
    assert all(0.0 <= v < 1.0 for v in values)
    # crude uniformity: about half below 0.5
    below = sum(v < 0.5 for v in values)
    assert 800 < below < 1200
    # a different seed draws a different subset
    assert [sample_hash(i, seed=1) for i in range(50)] != values[:50]


def test_sampling_rate_bounds_and_subset_stability():
    all_on = Tracer(TelemetryConfig(sample_rate=1.0))
    all_off = Tracer(TelemetryConfig(sample_rate=1e-12))
    half = Tracer(TelemetryConfig(sample_rate=0.5))
    half_again = Tracer(TelemetryConfig(sample_rate=0.5))
    ids = range(1000)
    assert all(all_on.sampled(i) for i in ids)
    picked = {i for i in ids if half.sampled(i)}
    assert {i for i in ids if half_again.sampled(i)} == picked
    assert 350 < len(picked) < 650
    assert sum(all_off.sampled(i) for i in ids) <= 2


# ---------------------------------------------------------------------- #
# Tracer mechanics
# ---------------------------------------------------------------------- #
def test_tracer_records_clamps_and_bounds_spans():
    tracer = Tracer(TelemetryConfig(sample_rate=1.0, max_spans=3))
    tracer.record("a", "queue", 0.0, 1.0)
    tracer.record("b", "queue", 2.0, 1.0)      # end < start -> clamped
    tracer.record("c", "queue", 3.0, 4.0)
    tracer.record("d", "queue", 5.0, 6.0)      # over max_spans -> dropped
    tracer.count("batches", 2)
    trace = tracer.finish({"run": "unit"})
    assert len(trace.spans) == 3
    assert trace.dropped == 1
    assert trace.spans[1].duration_s == 0.0
    assert trace.counters == {"batches": 2}
    assert trace.metadata["run"] == "unit"
    assert trace.by_category("queue")[0].name == "a"


def test_tracer_adopts_worker_spans_with_clamp():
    tracer = Tracer(TelemetryConfig(sample_rate=1.0), clock="wall")
    shipped = [Span("exec", "execute", 0.5, 9.0, lane="proc-worker-0",
                    trace_id=7, args={"fills": [2]}).to_tuple()]
    tracer.adopt(shipped, clamp=(1.0, 2.0))
    span = tracer.finish().spans[0]
    assert span.start_s == 1.0 and span.end_s == 2.0
    assert span.lane == "proc-worker-0" and span.trace_id == 7


def test_null_tracer_is_inert():
    assert not NULL_TRACER.enabled
    assert not NULL_TRACER.sampled(123)
    NULL_TRACER.record("a", "queue", 0.0, 1.0)
    NULL_TRACER.count("x")
    assert NULL_TRACER.finish() is None


# ---------------------------------------------------------------------- #
# Exporters
# ---------------------------------------------------------------------- #
def test_chrome_trace_structure(tmp_path):
    tracer = Tracer(TelemetryConfig(sample_rate=1.0))
    tracer.record("admission", "admission", 0.0, 0.0, lane="req-1", trace_id=1)
    tracer.record("queue", "queue", 0.0, 0.5, lane="req-1", trace_id=1)
    tracer.record("lenet_nano", "batch", 0.5, 1.0, lane="worker-0")
    trace = tracer.finish({"execution": "virtual"})
    doc = chrome_trace(trace)
    events = doc["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    spans = [e for e in events if e["ph"] == "X"]
    assert meta[0]["name"] == "process_name"
    lane_names = {e["args"]["name"] for e in meta if e["name"] == "thread_name"}
    assert lane_names == {"req-1", "worker-0"}
    assert len(spans) == 3
    assert all(e["dur"] >= 0.0 for e in spans)
    assert [e["ts"] for e in spans] == sorted(e["ts"] for e in spans)
    assert spans[0]["args"]["request_id"] == 1
    assert doc["otherData"]["clock"] == "virtual"
    path = trace.save(tmp_path / "sub" / "trace.json")
    assert json.loads(path.read_text())["displayTimeUnit"] == "ms"


def test_prometheus_text_format():
    collectorish = {
        "makespan_s": 2.0,
        "fleet": {"goodput_rps": 5.0, "offered_rps": 6.0, "shed_rate": 0.1,
                  "utilization": 0.4, "slo_attainment": 0.9,
                  "latency_ms": {"p50": 1.0, "p99": 3.0}},
        "per_model": {"lenet_nano": {
            "arrivals": 12, "completed": 10, "shed": {"slo": 2},
            "batches": 4, "padded_slots": 6, "compute_s": 0.8,
            "megabatch_saved_executions": 1,
            "queue": {"max_depth": 5},
        }},
        "admission": {"considered": 12, "admitted": 10, "shed_slo": 2},
    }
    text = prometheus_text(collectorish)
    assert text.endswith("\n")
    assert "# TYPE repro_requests_total counter" in text
    assert 'repro_requests_total{model="lenet_nano"} 12' in text
    assert 'repro_shed_total{model="lenet_nano",reason="slo"} 2' in text
    assert 'repro_queue_max_depth{model="lenet_nano"} 5' in text
    assert 'repro_admission_decisions_total{outcome="admitted"} 10' in text
    assert 'repro_fleet_latency_ms{quantile="p99"} 3.0' in text
    assert "repro_makespan_seconds 2.0" in text
    assert "repro_pipeline_lowerings_total" in text
    # HELP/TYPE precede every family's first sample
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("# TYPE"):
            assert lines[i - 1].startswith("# HELP")


# ---------------------------------------------------------------------- #
# Tape instrumentation
# ---------------------------------------------------------------------- #
def test_tape_sink_emits_per_instruction_spans():
    deployment = deploy_compile(
        "lenet_nano", COMPILE_CONFIG.with_overrides(image_size=IMAGE_SIZE,
                                                    batch_size=2))
    engine = deployment.engine
    tape = engine.tape
    seen: list[tuple] = []
    detach = attach_tape_sink(
        tape, lambda name, args, t0, t1: seen.append((name, args, t0, t1)))
    import numpy as np
    engine.run(np.zeros(engine.input_shape))
    detach()
    count = len(seen)
    assert count > 0
    for name, args, t0, t1 in seen:
        assert t1 >= t0
        assert "op" in args and "kind" in args
    # static metadata covers every flat instruction, with shapes/slots
    meta = tape_span_args(tape)
    assert len(meta) >= count
    assert any("shape" in args for args in meta.values())
    # detached: no further spans recorded
    engine.run(np.zeros(engine.input_shape))
    assert len(seen) == count


# ---------------------------------------------------------------------- #
# Fleet tracing end-to-end
# ---------------------------------------------------------------------- #
def test_serve_without_telemetry_has_no_trace():
    server = _server()
    report = server.serve(_requests())
    assert report.trace is None
    with pytest.raises(ValueError):
        report.save_trace("/tmp/never.json")


def test_virtual_serve_traces_sampled_requests():
    server = _server(compute_time_fn=lambda model, fill: 1e-3)
    reqs = _requests()
    report = server.serve(reqs, telemetry=TelemetryConfig(sample_rate=1.0))
    trace = report.trace
    assert trace is not None and trace.clock == "virtual"
    completed_ids = {o.request_id for o in report.outcomes if o.completed}
    request_spans = {s.trace_id for s in trace.by_category("request")}
    assert completed_ids <= request_spans
    for rid in list(completed_ids)[:10]:
        spans = {s.cat: s for s in trace.by_trace_id(rid)}
        assert {"admission", "queue", "execute", "request"} <= set(spans)
        root = spans["request"]
        assert root.start_s <= spans["admission"].start_s
        assert spans["queue"].end_s <= spans["execute"].start_s + 1e-9
        assert spans["execute"].end_s <= root.end_s + 1e-9
    # run-level annotations ride on the metrics report
    assert report.metrics["admission"]["considered"] == len(reqs)
    assert "queue" in report.metrics["per_model"]["lenet_nano"]
    assert "# TYPE repro_admission_decisions_total counter" in report.prometheus()


def test_partial_sampling_traces_a_strict_subset():
    server = _server(compute_time_fn=lambda model, fill: 1e-3)
    reqs = _requests(rate_rps=150.0)
    config = TelemetryConfig(sample_rate=0.4, seed=2)
    report = server.serve(reqs, telemetry=config)
    traced_ids = {s.trace_id for s in report.trace.spans
                  if s.trace_id is not None}
    expected = {r.request_id for r in reqs
                if sample_hash(r.request_id, config.seed) < config.sample_rate}
    assert traced_ids == expected
    assert 0 < len(traced_ids) < len(reqs)


def test_process_backend_trace_acceptance(tmp_path):
    """Acceptance: process-backend serve -> valid Chrome trace with nested,
    monotone admission/queue/batch/execute spans from worker processes."""
    server = _server(execution="real", backend="process", workers=2,
                     policy=BatchingPolicy.dynamic(BATCH, 5e-3))
    try:
        reqs = _requests(rate_rps=120.0, duration_s=0.5)
        report = server.serve(
            reqs, telemetry=TelemetryConfig(sample_rate=1.0, tape_spans=True))
    finally:
        server.close()
    trace = report.trace
    assert trace.clock == "wall"
    cats = {span.cat for span in trace.spans}
    assert {"admission", "queue", "batch", "execute", "request"} <= cats
    # spans from inside the worker processes made it back
    proc_lanes = {s.lane for s in trace.spans if s.lane.startswith("proc-worker")}
    assert proc_lanes
    assert trace.by_category("tape"), "tape_spans=True must emit kernel spans"
    # per-request nesting + monotonicity on the parent clock
    checked = 0
    for outcome in report.outcomes:
        if not outcome.completed:
            continue
        spans = {s.cat: s for s in trace.by_trace_id(outcome.request_id)}
        assert {"admission", "queue", "execute", "request"} <= set(spans)
        root = spans["request"]
        assert root.start_s <= spans["queue"].start_s + 1e-9
        assert spans["queue"].end_s <= spans["execute"].start_s + 1e-9
        assert spans["execute"].end_s <= root.end_s + 1e-9
        checked += 1
    assert checked == report.completed > 0

    path = report.save_trace(tmp_path / "trace.json")
    doc = json.loads(path.read_text())
    events = doc["traceEvents"]
    span_events = [e for e in events if e["ph"] == "X"]
    assert span_events and all(e["dur"] >= 0.0 for e in span_events)
    assert all(e["ts"] >= 0.0 for e in span_events)
    # complete events are sorted by start time (viewer monotonicity)
    ts = [e["ts"] for e in span_events]
    assert ts == sorted(ts)
    lane_names = {e["args"]["name"] for e in events
                  if e["ph"] == "M" and e["name"] == "thread_name"}
    assert any(name.startswith("proc-worker-") for name in lane_names)
    assert doc["otherData"]["backend"] == "process"


def test_trace_span_budget_is_enforced_end_to_end():
    server = _server(compute_time_fn=lambda model, fill: 1e-3)
    report = server.serve(
        _requests(rate_rps=150.0),
        telemetry=TelemetryConfig(sample_rate=1.0, max_spans=10))
    assert len(report.trace.spans) == 10
    assert report.trace.dropped > 0
