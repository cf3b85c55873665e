"""Serving building blocks: batching policy/queues, plan cache, admission."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.serving import (
    AdmissionController,
    AdmissionPolicy,
    BatchingPolicy,
    DynamicBatcher,
    EwmaCostModel,
    MetricsCollector,
    PlanCache,
    Request,
    percentiles_ms,
)


def _req(rid: int, arrival: float, model: str = "m", deadline: float | None = None) -> Request:
    return Request(request_id=rid, model=model, arrival_s=arrival,
                   image=np.zeros((1, 2, 2)), deadline_s=deadline)


# ---------------------------------------------------------------------- #
# BatchingPolicy / DynamicBatcher
# ---------------------------------------------------------------------- #
def test_policy_validation_and_kinds():
    assert BatchingPolicy.full_batch(8).kind == "full_batch"
    dynamic = BatchingPolicy.dynamic(8, 5e-3)
    assert dynamic.kind == "dynamic"
    assert "5.0ms" in dynamic.describe()
    with pytest.raises(ValueError, match="max_batch"):
        BatchingPolicy(max_batch=0)
    with pytest.raises(ValueError, match="max_wait_s"):
        BatchingPolicy(max_batch=4, max_wait_s=-1.0)


def test_batcher_routes_only_its_model():
    queue = DynamicBatcher("a", BatchingPolicy.full_batch(4))
    with pytest.raises(ValueError, match="routed"):
        queue.push(_req(0, 0.0, model="b"))


def test_ready_time_size_trigger():
    queue = DynamicBatcher("m", BatchingPolicy.full_batch(2))
    assert queue.ready_time(pending_arrivals=5) == math.inf
    queue.push(_req(0, 1.0))
    # partial batch + more arrivals coming: keep waiting
    assert queue.ready_time(pending_arrivals=5) == math.inf
    queue.push(_req(1, 3.0))
    # full batch: ready the moment the batch-filling request arrived
    assert queue.ready_time(pending_arrivals=5) == 3.0


def test_ready_time_timeout_trigger():
    queue = DynamicBatcher("m", BatchingPolicy.dynamic(4, 0.25))
    queue.push(_req(0, 1.0))
    queue.push(_req(1, 1.1))
    assert queue.ready_time(pending_arrivals=3) == pytest.approx(1.25)


def test_ready_time_end_of_stream_flush():
    queue = DynamicBatcher("m", BatchingPolicy.full_batch(4))
    queue.push(_req(0, 2.0))
    assert queue.ready_time(pending_arrivals=1) == math.inf
    assert queue.ready_time(pending_arrivals=0) == 2.0


def test_pop_batch_preserves_fifo_and_remainder():
    queue = DynamicBatcher("m", BatchingPolicy.full_batch(2))
    for rid in range(5):
        queue.push(_req(rid, float(rid)))
    assert [r.request_id for r in queue.pop_batch()] == [0, 1]
    assert [r.request_id for r in queue.pop_batch()] == [2, 3]
    assert queue.depth == 1
    assert queue.head_arrival_s == 4.0


# ---------------------------------------------------------------------- #
# PlanCache (stubbed compile: no real models involved)
# ---------------------------------------------------------------------- #
def test_plan_cache_lru_eviction_and_recompile_accounting():
    compiles: list[str] = []

    def fake_compile(name: str) -> str:
        compiles.append(name)
        return f"plan:{name}"

    cache = PlanCache(capacity=2, compile_fn=fake_compile)
    assert cache.get("a") == "plan:a"
    assert cache.get("b") == "plan:b"
    assert cache.get("a") == "plan:a"          # hit, refreshes LRU position
    assert cache.get("c") == "plan:c"          # evicts b (LRU)
    assert cache.resident == ["a", "c"]
    assert "b" not in cache
    assert cache.get("b") == "plan:b"          # recompile of an evicted entry
    assert compiles == ["a", "b", "c", "b"]
    stats = cache.stats()
    assert stats["hits"] == 1
    assert stats["misses"] == 4
    assert stats["evictions"] == 2
    assert stats["recompiles"] == 1
    assert stats["total_compile_s"] >= 0.0
    assert set(stats["compile_s"]) == {"a", "b", "c"}


def test_plan_cache_rejects_zero_capacity():
    with pytest.raises(ValueError, match="capacity"):
        PlanCache(capacity=0, compile_fn=lambda name: name)


def test_plan_cache_peek_has_no_side_effects():
    cache = PlanCache(capacity=2, compile_fn=lambda name: f"plan:{name}")
    cache.get("a")
    cache.get("b")                         # LRU order: a, b
    assert cache.peek("a") == "plan:a"
    assert cache.peek("zzz") is None
    stats = cache.stats()
    assert stats["hits"] == 0 and stats["misses"] == 2
    cache.get("c")                         # peek must not have refreshed "a"
    assert cache.resident == ["b", "c"]


# ---------------------------------------------------------------------- #
# EWMA cost model + admission control
# ---------------------------------------------------------------------- #
def test_ewma_cost_model_prime_and_observe():
    model = EwmaCostModel(alpha=0.5, default_s=0.01)
    assert model.estimate("m") == 0.01
    model.prime("m", 0.004)
    assert model.estimate("m") == 0.004
    model.observe("m", 0.008)
    assert model.estimate("m") == pytest.approx(0.006)
    assert model.to_dict() == {"m": pytest.approx(0.006)}
    with pytest.raises(ValueError, match="alpha"):
        EwmaCostModel(alpha=0.0)


def test_ewma_cost_model_files_partial_fills_under_their_bucket():
    model = EwmaCostModel(alpha=0.5)
    model.prime("m", 0.004)
    # Fills 3 and 4 share the b4 bucket; neither moves the full-batch entry.
    model.observe("m", 0.001, fill=3)
    model.observe("m", 0.003, fill=4)
    model.observe("m", 0.0005, fill=1)
    assert model.estimate("m") == 0.004
    assert model.to_dict() == {"m": 0.004}
    assert model._estimates[("m", 4)] == pytest.approx(0.002)
    assert model._estimates[("m", 1)] == 0.0005
    model.observe("m", 0.006)
    assert model.estimate("m") == pytest.approx(0.005)


def _controller(max_depth=2, cost=0.01) -> tuple[AdmissionController, dict]:
    cost_model = EwmaCostModel(default_s=cost)
    controller = AdmissionController(AdmissionPolicy(max_queue_depth=max_depth),
                                     cost_model)
    queues = {"m": DynamicBatcher("m", BatchingPolicy.full_batch(2))}
    return controller, queues


def test_admission_bounded_queue_sheds_when_full():
    controller, queues = _controller(max_depth=2)
    queues["m"].push(_req(0, 0.0))
    queues["m"].push(_req(1, 0.0))
    decision = controller.consider(_req(2, 0.0), now=0.0, worker_free=0.0,
                                   queues=queues, batching=queues["m"].policy)
    assert not decision.admitted
    assert decision.reason == "queue_full"


def test_admission_slo_shed_uses_predicted_latency():
    controller, queues = _controller(max_depth=None, cost=0.05)
    # Worker busy for another 200ms and one queued batch at 50ms: a 100ms
    # deadline is unmeetable, a 1s deadline is comfortable.
    queues["m"].push(_req(0, 0.0))
    tight = controller.consider(_req(1, 0.0, deadline=0.1), now=0.0, worker_free=0.2,
                                queues=queues, batching=queues["m"].policy)
    assert not tight.admitted and tight.reason == "slo"
    assert tight.predicted_latency_s == pytest.approx(0.2 + 0.05 + 0.05)
    loose = controller.consider(_req(2, 0.0, deadline=1.0), now=0.0, worker_free=0.2,
                                queues=queues, batching=queues["m"].policy)
    assert loose.admitted and loose.predicted_latency_s is not None


def test_admission_without_deadline_always_admits_on_slo_gate():
    controller, queues = _controller(max_depth=None, cost=10.0)
    decision = controller.consider(_req(0, 0.0, deadline=None), now=0.0,
                                   worker_free=100.0, queues=queues,
                                   batching=queues["m"].policy)
    assert decision.admitted


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #
def test_percentiles_ms_empty_population_is_zeroed():
    summary = percentiles_ms([])
    assert summary["count"] == 0
    assert summary["p99"] == 0.0


def test_metrics_report_structure():
    collector = MetricsCollector(["a", "b"])
    collector.record_arrival("a", 0.0)
    collector.record_arrival("b", 0.5)
    collector.record_arrival("b", 1.0)
    collector.record_shed("b", "slo")
    collector.record_batch("a", fill=1, batch_size=4, compute_s=0.2)
    collector.record_completion("a", 0.3, deadline_s=0.25)   # completed but SLO-missed
    collector.record_completion("b", 0.1, deadline_s=0.25)
    collector.record_queue_depth(0.0, 1)
    collector.record_queue_depth(1.0, 0)
    report = collector.report(makespan_s=2.0)
    fleet = report["fleet"]
    assert fleet["arrivals"] == 3
    assert fleet["completed"] == 2
    assert fleet["shed"] == 1
    assert fleet["shed_rate"] == pytest.approx(1 / 3)
    assert fleet["offered_rps"] == pytest.approx(3.0)     # 3 arrivals over 1s span
    assert fleet["goodput_rps"] == pytest.approx(1.0)
    assert fleet["utilization"] == pytest.approx(0.1)
    assert fleet["slo_attainment"] == pytest.approx(0.5)
    assert report["per_model"]["a"]["mean_fill"] == 1.0
    assert report["per_model"]["a"]["padded_slots"] == 3
    assert report["per_model"]["a"]["slo_attainment"] == 0.0
    assert report["per_model"]["b"]["shed"] == {"slo": 1}
    assert report["per_model"]["b"]["slo_attainment"] == 1.0
    assert report["queue_depth"]["max_depth"] == 1
