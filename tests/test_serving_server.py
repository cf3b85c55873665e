"""FleetServer end-to-end: routing, batching policies, admission, cache.

Virtual-clock determinism: tests pass a fixed ``compute_time_fn`` so batch
timing (and therefore every latency and shed decision) is exactly
reproducible, while the engines still execute for real so output codes can
be checked bit-exact.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.deploy import CompileConfig
from repro.serving import (
    SCENARIOS,
    AdmissionPolicy,
    BatchingPolicy,
    FleetServer,
    Request,
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


def _server(policy: BatchingPolicy, fleet=FLEET, **kwargs) -> FleetServer:
    kwargs.setdefault("admission", AdmissionPolicy(max_queue_depth=64))
    kwargs.setdefault("compute_time_fn", FIXED_COST)
    return FleetServer(fleet, batch_size=BATCH, image_size=IMAGE_SIZE, policy=policy,
                       compile_config=COMPILE_CONFIG, **kwargs)


def _sparse_requests(seed: int = 0):
    scenario = SCENARIOS["sparse_poisson"]
    return generate_requests(scenario, fleet_input_shapes(FLEET, IMAGE_SIZE), seed=seed)


# ---------------------------------------------------------------------- #
# The acceptance claim: dynamic batching beats full-batch coalescing on
# tail latency under sparse arrivals, without shedding anything.
# ---------------------------------------------------------------------- #
def test_dynamic_batching_beats_full_batch_p99_on_sparse_arrivals():
    requests = _sparse_requests(seed=0)
    dynamic = _server(BatchingPolicy.dynamic(BATCH, 5e-3)).serve(requests)
    fixed = _server(BatchingPolicy.full_batch(BATCH)).serve(requests)

    assert dynamic.shed == 0, "admission control must not shed the sparse stream"
    assert fixed.shed == 0
    assert dynamic.completed == fixed.completed == len(requests)
    # Sparse arrivals starve fixed full batches: requests age waiting for the
    # batch to fill. The timeout policy caps that wait at max_wait.
    assert dynamic.latency_ms("p99") < fixed.latency_ms("p99") / 5
    assert dynamic.latency_ms("p50") < fixed.latency_ms("p50")
    # Goodput ties (everything completes); SLO attainment separates the
    # policies: every dynamic completion meets the 250ms deadline, most
    # full-batch completions bust it.
    assert dynamic.fleet["slo_attainment"] == 1.0
    assert fixed.fleet["slo_attainment"] < 0.5
    # Deterministic: same seed + fixed costs reproduce the exact percentiles.
    again = _server(BatchingPolicy.dynamic(BATCH, 5e-3)).serve(_sparse_requests(seed=0))
    assert again.latency_ms("p99") == dynamic.latency_ms("p99")


def test_served_codes_are_bit_exact_to_direct_engine_runs():
    requests = _sparse_requests(seed=1)[:24]
    server = _server(BatchingPolicy.dynamic(BATCH, 5e-3))
    report = server.serve(requests)
    by_id = {r.request_id: r for r in requests}
    assert len(report.outcomes) == len(requests)
    for outcome in report.outcomes:
        assert outcome.completed
        engine = server.cache.get(outcome.model).engine
        direct = engine.run_partial(by_id[outcome.request_id].image[None])
        np.testing.assert_array_equal(outcome.codes, direct.codes[0])


def test_routing_covers_both_models_and_reports_fills():
    requests = _sparse_requests(seed=2)
    report = _server(BatchingPolicy.dynamic(BATCH, 5e-3)).serve(requests)
    per_model = report.metrics["per_model"]
    for model in FLEET:
        assert per_model[model]["completed"] > 0
        assert per_model[model]["batches"] > 0
    # Variable fill: sparse traffic means mostly partial batches, and the
    # report must say so instead of pretending every batch was full.
    fills = [o.batch_fill for o in report.outcomes]
    assert min(fills) < BATCH
    total_padded = sum(per_model[m]["padded_slots"] for m in FLEET)
    assert total_padded > 0
    assert all(0 < per_model[m]["mean_fill"] <= BATCH for m in FLEET)


def test_overload_sheds_instead_of_queueing_unboundedly():
    # 1000 rps offered against 20ms batches of <= 4: capacity ~200 rps.
    rng = np.random.default_rng(0)
    arrivals = np.sort(rng.uniform(0.0, 0.5, size=500))
    requests = [Request(i, "lenet_nano", float(t),
                        rng.standard_normal((3, IMAGE_SIZE, IMAGE_SIZE)),
                        deadline_s=0.08)
                for i, t in enumerate(arrivals)]
    report = _server(BatchingPolicy.dynamic(4, 2e-3), fleet=["lenet_nano"],
                     admission=AdmissionPolicy(max_queue_depth=16),
                     compute_time_fn=lambda m, f: 0.02).serve(requests)
    fleet = report.fleet
    assert fleet["shed"] > 0
    assert fleet["completed"] + fleet["shed"] == fleet["arrivals"] == 500
    shed_reasons = report.metrics["per_model"]["lenet_nano"]["shed"]
    assert set(shed_reasons) <= {"slo", "queue_full"} and shed_reasons
    # Everything that did complete met a bounded latency, far below the
    # unbounded queueing alternative (0.5s of backlog at 5x overload).
    assert fleet["latency_ms"]["max"] < 500.0
    for outcome in report.outcomes:
        assert outcome.completed or outcome.shed_reason in {"slo", "queue_full"}


def test_plan_cache_eviction_recompiles_under_capacity_pressure():
    requests = _sparse_requests(seed=3)
    report = _server(BatchingPolicy.dynamic(BATCH, 5e-3),
                     cache_capacity=1).serve(requests)
    cache = report.cache
    assert cache["capacity"] == 1
    assert len(cache["resident"]) == 1
    # Interleaved two-model traffic through a one-slot cache must thrash.
    assert cache["evictions"] > 0
    assert cache["recompiles"] > 0
    assert report.shed == 0 and report.completed == len(requests)


def test_empty_stream_produces_empty_report():
    report = _server(BatchingPolicy.dynamic(BATCH, 5e-3)).serve([])
    assert report.outcomes == []
    assert report.fleet["arrivals"] == 0
    assert report.fleet["goodput_rps"] == 0.0
    assert report.fleet["slo_attainment"] is None
    assert report.metrics["makespan_s"] == 0.0
    assert report.metrics["queue_depth"]["max_depth"] == 0


def test_full_batch_policy_flushes_trailing_partial_batch():
    rng = np.random.default_rng(0)
    requests = [Request(i, "lenet_nano", 0.01 * i,
                        rng.standard_normal((3, IMAGE_SIZE, IMAGE_SIZE)))
                for i in range(BATCH + 3)]
    report = _server(BatchingPolicy.full_batch(BATCH),
                     fleet=["lenet_nano"]).serve(requests)
    assert report.completed == BATCH + 3
    fills = sorted({o.batch_fill for o in report.outcomes})
    assert fills == [3, BATCH]


def test_server_validation_errors():
    with pytest.raises(ValueError, match="available"):
        FleetServer(["resnet_nano_giant"])
    with pytest.raises(ValueError, match="duplicate"):
        _server(BatchingPolicy.dynamic(BATCH, 1e-3), fleet=["lenet_nano", "lenet_nano"])
    with pytest.raises(ValueError, match="exceeds the"):
        _server(BatchingPolicy.dynamic(BATCH + 1, 1e-3))
    server = _server(BatchingPolicy.dynamic(BATCH, 5e-3), fleet=["lenet_nano"])
    stray = Request(0, "mobilenet_v1_nano", 0.0, np.zeros((3, IMAGE_SIZE, IMAGE_SIZE)))
    with pytest.raises(ValueError, match="not in the fleet"):
        server.serve([stray])
    late = Request(0, "lenet_nano", -1.0, np.zeros((3, IMAGE_SIZE, IMAGE_SIZE)))
    with pytest.raises(ValueError, match="negative arrival"):
        server.serve([late])
    twins = [Request(7, "lenet_nano", 0.0, np.zeros((3, IMAGE_SIZE, IMAGE_SIZE))),
             Request(7, "lenet_nano", 0.1, np.zeros((3, IMAGE_SIZE, IMAGE_SIZE)))]
    with pytest.raises(ValueError, match="duplicate request_id"):
        server.serve(twins)


def test_padding_is_counted_against_the_engine_batch_shape():
    """A sub-batch_size policy still pays engine padding, and the report says so."""
    rng = np.random.default_rng(0)
    requests = [Request(i, "lenet_nano", 0.0,
                        rng.standard_normal((3, IMAGE_SIZE, IMAGE_SIZE)))
                for i in range(4)]
    report = _server(BatchingPolicy.dynamic(4, 1e-3),
                     fleet=["lenet_nano"]).serve(requests)
    stats = report.metrics["per_model"]["lenet_nano"]
    assert stats["batches"] == 1 and stats["mean_fill"] == 4.0
    # policy batch of 4 on an engine bound to 8: 4 padded compute rows
    assert stats["padded_slots"] == BATCH - 4


def test_input_shapes_property_matches_engines():
    server = _server(BatchingPolicy.dynamic(BATCH, 5e-3))
    before = dict(server.cache.stats())
    assert server.input_shapes == {m: (3, IMAGE_SIZE, IMAGE_SIZE) for m in FLEET}
    after = server.cache.stats()
    # A diagnostics property must not perturb cache counters or LRU order.
    assert after["hits"] == before["hits"] and after["resident"] == before["resident"]


def _interleaved_two_model_stream(count: int = 48, seed: int = 6) -> list[Request]:
    rng = np.random.default_rng(seed)
    return [Request(i, FLEET[i % 2], 0.004 * i,
                    rng.standard_normal((3, IMAGE_SIZE, IMAGE_SIZE)))
            for i in range(count)]


def test_dispatch_workers_overlap_different_models():
    """workers=N launches different models' batches concurrently: the
    makespan shrinks under fixed per-batch costs while every output code
    stays identical to the single-worker serialization."""
    requests = _interleaved_two_model_stream()
    cost = lambda model, fill: 2e-2
    one = _server(BatchingPolicy.dynamic(BATCH, 5e-3),
                  compute_time_fn=cost).serve(requests)
    two_server = _server(BatchingPolicy.dynamic(BATCH, 5e-3),
                         compute_time_fn=cost, workers=2)
    two = two_server.serve(requests)
    assert two_server.workers == 2
    assert one.completed == two.completed == len(requests)
    for a, b in zip(one.outcomes, two.outcomes):
        assert a.request_id == b.request_id
        np.testing.assert_array_equal(a.codes, b.codes)
    # Two models' batches overlap on two workers: strictly less virtual time.
    assert two.metrics["makespan_s"] < one.metrics["makespan_s"]
    assert {o.worker_index for o in two.outcomes} == {0, 1}
    # Utilization is normalized by the worker count, so it stays in [0, 1].
    assert 0.0 < two.fleet["utilization"] <= 1.0
    # Tail latency cannot get worse from adding a worker under fixed costs.
    assert two.latency_ms("p99") <= one.latency_ms("p99") + 1e-9


def test_dispatch_workers_serialize_same_model():
    """One engine per model: a single model's batches never overlap, so
    extra dispatch workers change nothing for a single-model stream."""
    rng = np.random.default_rng(7)
    requests = [Request(i, "lenet_nano", 0.001 * i,
                        rng.standard_normal((3, IMAGE_SIZE, IMAGE_SIZE)))
                for i in range(3 * BATCH)]
    cost = lambda model, fill: 1e-2
    one = _server(BatchingPolicy.dynamic(BATCH, 5e-3), fleet=["lenet_nano"],
                  compute_time_fn=cost).serve(requests)
    four = _server(BatchingPolicy.dynamic(BATCH, 5e-3), fleet=["lenet_nano"],
                   compute_time_fn=cost, workers=4).serve(requests)
    assert four.metrics["makespan_s"] == pytest.approx(one.metrics["makespan_s"])
    for a, b in zip(one.outcomes, four.outcomes):
        np.testing.assert_array_equal(a.codes, b.codes)
