"""Full-batch coalescing of a request stream, and the engine's variable-fill
execution path.

A stream of single-image requests is served with
``dep.serve(ServeConfig(max_wait_s=None)).serve(requests)``: the fleet
server's full-batch policy on the virtual clock.  A fixed per-batch cost
keeps every latency exact.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import deploy
from repro.deploy import ServeConfig
from repro.serving import Request

IMAGE_SIZE = 8
BATCH = 4
#: per-batch compute seconds on the virtual clock
COST_S = 2e-3


@pytest.fixture(scope="module")
def compiled():
    return deploy.compile("lenet_nano", image_size=IMAGE_SIZE, batch_size=BATCH,
                          calibration_samples=8, calibration_batch_size=4)


def _images(count: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((count, 3, IMAGE_SIZE, IMAGE_SIZE))


def _serve(compiled, images: np.ndarray, arrivals=None):
    """Serve one request per image (all at t=0 unless ``arrivals`` is given)
    under the full-batch policy; returns the fleet report."""
    if arrivals is None:
        arrivals = np.zeros(len(images))
    requests = [Request(i, compiled.model, float(t), image)
                for i, (t, image) in enumerate(zip(arrivals, images))]
    server = compiled.serve(ServeConfig(max_wait_s=None),
                            compute_time_fn=lambda model, fill: COST_S)
    return server.serve(requests)


# ---------------------------------------------------------------------- #
# Latency statistics: p95 and the zero-request guard
# ---------------------------------------------------------------------- #
def test_stats_include_p95(compiled):
    report = _serve(compiled, _images(10))
    latency = report.fleet["latency_ms"]
    assert latency["p95"] > 0.0
    assert latency["p50"] <= latency["p95"] <= latency["p99"]
    assert report.to_dict()["metrics"]["fleet"]["latency_ms"]["p95"] == latency["p95"]


def test_zero_request_run_yields_zeroed_stats(compiled):
    report = _serve(compiled, _images(0))
    assert report.outcomes == []
    assert report.completed == 0
    assert report.metrics["per_model"][compiled.model]["batches"] == 0
    assert report.fleet["goodput_rps"] == 0.0
    assert report.fleet["latency_ms"]["mean"] == 0.0
    assert report.fleet["latency_ms"]["p95"] == 0.0
    assert report.fleet["latency_ms"]["p99"] == 0.0


# ---------------------------------------------------------------------- #
# Input validation
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_requests_rejected(compiled, bad):
    images = _images(3)
    images[1, 0, 0, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        _serve(compiled, images)


def test_engine_rejects_non_finite_inputs_directly(compiled):
    """The guard lives in the engine, so every caller (serving, direct
    run/run_partial) is covered."""
    batch = _images(BATCH)
    batch[0, 0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        compiled.engine.run(batch)
    with pytest.raises(ValueError, match="finite"):
        compiled.engine.run_partial(batch[:2] * np.inf)


# ---------------------------------------------------------------------- #
# Arrival-time edge cases
# ---------------------------------------------------------------------- #
def test_duplicate_arrival_timestamps_are_valid(compiled):
    arrivals = np.array([0.0, 0.0, 0.1, 0.1, 0.1, 0.2])
    report = _serve(compiled, _images(6), arrivals)
    assert report.completed == 6
    # Requests sharing a timestamp and a batch share the batch finish time,
    # hence identical latencies.
    assert report.outcomes[0].latency_s == report.outcomes[1].latency_s


def test_final_partial_batch_is_padded_and_counted(compiled):
    images = _images(BATCH + 2)
    report = _serve(compiled, images)
    stats = report.metrics["per_model"][compiled.model]
    assert stats["batches"] == 2
    assert stats["padded_slots"] == BATCH - 2
    assert report.completed == BATCH + 2
    assert [o.batch_index for o in report.outcomes] == [0] * BATCH + [1, 1]
    # Per-request codes equal a direct engine run over the same rows, and
    # padding does not contaminate the final partial batch.
    padded = np.zeros((BATCH, 3, IMAGE_SIZE, IMAGE_SIZE))
    padded[:2] = images[BATCH:]
    direct = np.concatenate([compiled.engine.run(images[:BATCH]).codes,
                             compiled.engine.run(padded).codes[:2]])
    for outcome in report.outcomes:
        np.testing.assert_array_equal(outcome.codes, direct[outcome.request_id])


def test_burst_latencies_grow_with_batch_index(compiled):
    """An all-at-t=0 burst queues behind the worker: later batches wait longer."""
    report = _serve(compiled, _images(3 * BATCH))
    per_batch = {}
    for outcome in report.outcomes:
        per_batch.setdefault(outcome.batch_index, outcome.latency_s)
        # same arrival + same batch finish => identical latency within a batch
        assert outcome.latency_s == per_batch[outcome.batch_index]
    assert per_batch[0] < per_batch[1] < per_batch[2]
    assert per_batch[2] == pytest.approx(3 * COST_S)


def test_spaced_arrivals_wait_for_their_batch_to_fill(compiled):
    """With fixed full-batch coalescing, the earliest request of a batch
    waits for the batch-filling arrival: latencies decrease within a batch."""
    gap = 0.5
    arrivals = np.arange(2 * BATCH) * gap
    report = _serve(compiled, _images(2 * BATCH), arrivals)
    for batch_start in (0, BATCH):
        batch = report.outcomes[batch_start:batch_start + BATCH]
        latencies = [o.latency_s for o in batch]
        assert latencies == sorted(latencies, reverse=True)
        # The batch head waited ~(BATCH-1) gaps; the tail only its compute.
        assert latencies[0] >= (BATCH - 1) * gap
        assert latencies[-1] == pytest.approx(COST_S)
    # The virtual makespan covers the arrival span.
    assert report.metrics["makespan_s"] >= arrivals[-1]


# ---------------------------------------------------------------------- #
# CompiledEngine.run_partial (variable fill)
# ---------------------------------------------------------------------- #
def test_run_partial_matches_padded_full_batch(compiled):
    engine = compiled.engine
    images = _images(2, seed=3)
    partial = engine.run_partial(images)
    assert partial.codes.shape[0] == 2
    padded = np.zeros(engine.input_shape)
    padded[:2] = images
    full = engine.run(padded)
    np.testing.assert_array_equal(partial.codes, full.codes[:2])
    assert partial.fraction == full.fraction
    assert partial.divisor == full.divisor


def test_run_partial_full_fill_matches_run(compiled):
    engine = compiled.engine
    images = _images(BATCH, seed=4)
    np.testing.assert_array_equal(engine.run_partial(images).codes,
                                  engine.run(images).codes)


def test_run_partial_rejects_bad_fill(compiled):
    engine = compiled.engine
    with pytest.raises(ValueError, match="fill"):
        engine.run_partial(_images(BATCH + 1))
    with pytest.raises(ValueError, match="fill"):
        engine.run_partial(np.empty((0, 3, IMAGE_SIZE, IMAGE_SIZE)))
    with pytest.raises(ValueError, match="shaped"):
        engine.run_partial(np.zeros((2, 3, IMAGE_SIZE + 1, IMAGE_SIZE)))
