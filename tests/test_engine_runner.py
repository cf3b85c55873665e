"""BatchedRunner edge cases and the engine's variable-fill execution path."""

from __future__ import annotations

import numpy as np
import pytest

from repro import deploy
from repro.engine import BatchedRunner

IMAGE_SIZE = 8
BATCH = 4


@pytest.fixture(scope="module")
def compiled():
    return deploy.compile("lenet_nano", image_size=IMAGE_SIZE, batch_size=BATCH,
                          calibration_samples=8, calibration_batch_size=4)


def _images(count: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((count, 3, IMAGE_SIZE, IMAGE_SIZE))


# ---------------------------------------------------------------------- #
# RunnerStats: p95 and the zero-request guard
# ---------------------------------------------------------------------- #
def test_stats_include_p95(compiled):
    runner = BatchedRunner(compiled.engine)
    _, stats = runner.run(_images(10))
    assert stats.latency_p95_ms > 0.0
    assert stats.latency_p50_ms <= stats.latency_p95_ms <= stats.latency_p99_ms
    payload = stats.to_dict()
    assert payload["latency_p95_ms"] == stats.latency_p95_ms
    for key in ("latency_p50_ms", "latency_p90_ms", "latency_p95_ms", "latency_p99_ms"):
        assert key in payload


def test_zero_request_run_yields_zeroed_stats(compiled):
    runner = BatchedRunner(compiled.engine)
    results, stats = runner.run(_images(0))
    assert results == []
    assert stats.requests == 0
    assert stats.batches == 0
    assert stats.throughput_rps == 0.0
    assert stats.latency_mean_ms == 0.0
    assert stats.latency_p95_ms == 0.0
    assert stats.latency_p99_ms == 0.0
    # to_dict must serialize without touching an empty percentile array.
    assert stats.to_dict()["requests"] == 0


# ---------------------------------------------------------------------- #
# Staging buffer dtype and input validation
# ---------------------------------------------------------------------- #
def test_staging_uses_engine_input_dtype(compiled):
    runner = BatchedRunner(compiled.engine)
    assert runner._staging.dtype == compiled.engine.input_dtype


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_requests_rejected(compiled, bad):
    runner = BatchedRunner(compiled.engine)
    images = _images(3)
    images[1, 0, 0, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        runner.run(images)


def test_engine_rejects_non_finite_inputs_directly(compiled):
    """The guard lives in the engine, so every caller (runner, serving,
    direct run/run_partial) is covered."""
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
    runner = BatchedRunner(compiled.engine)
    arrivals = np.array([0.0, 0.0, 0.1, 0.1, 0.1, 0.2])
    results, stats = runner.run(_images(6), arrivals)
    assert stats.requests == 6
    # Requests sharing a timestamp and a batch share the batch finish time,
    # hence identical latencies.
    assert results[0].latency_s == pytest.approx(results[1].latency_s)


def test_decreasing_arrivals_rejected(compiled):
    runner = BatchedRunner(compiled.engine)
    with pytest.raises(ValueError, match="non-decreasing"):
        runner.run(_images(3), np.array([0.0, 0.2, 0.1]))


def test_final_partial_batch_is_padded_and_counted(compiled):
    runner = BatchedRunner(compiled.engine)
    results, stats = runner.run(_images(BATCH + 2))
    assert stats.batches == 2
    assert stats.padded_requests == BATCH - 2
    assert len(results) == BATCH + 2
    assert [r.batch_index for r in results] == [0] * BATCH + [1, 1]


def test_burst_latencies_grow_with_batch_index(compiled):
    """An all-at-t=0 burst queues behind the worker: later batches wait longer."""
    runner = BatchedRunner(compiled.engine)
    results, _ = runner.run(_images(3 * BATCH))
    per_batch = {}
    for r in results:
        per_batch.setdefault(r.batch_index, r.latency_s)
        # same arrival + same batch finish => identical latency within a batch
        assert r.latency_s == pytest.approx(per_batch[r.batch_index])
    assert per_batch[0] < per_batch[1] < per_batch[2]


def test_spaced_arrivals_wait_for_their_batch_to_fill(compiled):
    """With fixed full-batch coalescing, the earliest request of a batch
    waits for the batch-filling arrival: latencies decrease within a batch."""
    runner = BatchedRunner(compiled.engine)
    gap = 0.5
    arrivals = np.arange(2 * BATCH) * gap
    results, stats = runner.run(_images(2 * BATCH), arrivals)
    for batch_start in (0, BATCH):
        batch = results[batch_start:batch_start + BATCH]
        latencies = [r.latency_s for r in batch]
        assert latencies == sorted(latencies, reverse=True)
        # The batch head waited ~(BATCH-1) gaps; the tail only its compute.
        assert latencies[0] >= (BATCH - 1) * gap
        assert latencies[-1] < gap
    # Virtual makespan covers the arrival span, so throughput is arrival-bound.
    assert stats.total_time_s >= arrivals[-1]


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
