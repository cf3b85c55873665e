"""Unit tests for calibration methods and the streaming histogram."""

import numpy as np
import pytest

from repro.quant import (
    TensorHistogram,
    calibrate,
    kl_j_calibration,
    kl_j_distance,
    max_calibration,
    percentile_calibration,
    std_calibration,
)


class TestSimpleCalibrators:
    def test_max_calibration(self):
        assert max_calibration(np.array([-3.0, 2.0, 1.0])) == 3.0

    def test_max_calibration_empty_and_zero(self):
        assert max_calibration(np.array([])) > 0
        assert max_calibration(np.zeros(5)) > 0

    def test_std_calibration_scales_with_sigma(self, rng):
        small = std_calibration(rng.normal(0, 0.1, 10000))
        large = std_calibration(rng.normal(0, 10.0, 10000))
        assert large / small == pytest.approx(100.0, rel=0.05)

    def test_3sd_clips_gaussian_tails(self, rng):
        values = rng.normal(0, 1.0, 100000)
        threshold = std_calibration(values, num_std=3.0)
        assert threshold == pytest.approx(3.0, rel=0.05)
        assert threshold < np.abs(values).max()

    def test_percentile_calibration(self, rng):
        values = rng.normal(0, 1.0, 100000)
        p99 = percentile_calibration(values, percentile=99.0)
        assert p99 < percentile_calibration(values, percentile=99.99)
        assert p99 == pytest.approx(np.percentile(np.abs(values), 99.0), rel=1e-6)

    def test_dispatch(self, rng):
        values = rng.normal(0, 1, 1000)
        assert calibrate(values, "max") == max_calibration(values)
        assert calibrate(values, "3sd") == std_calibration(values, 3.0)
        with pytest.raises(ValueError):
            calibrate(values, "unknown-method")


class TestKLJDistance:
    def test_identical_distributions_have_zero_distance(self):
        p = np.array([1.0, 2.0, 3.0, 4.0])
        assert kl_j_distance(p, p) == pytest.approx(0.0, abs=1e-6)

    def test_symmetry(self, rng):
        p = rng.random(32)
        q = rng.random(32)
        assert kl_j_distance(p, q) == pytest.approx(kl_j_distance(q, p))

    def test_diverging_distributions_have_larger_distance(self):
        p = np.array([10.0, 0.0, 0.0, 0.0])
        near = np.array([9.0, 1.0, 0.0, 0.0])
        far = np.array([0.0, 0.0, 0.0, 10.0])
        assert kl_j_distance(p, near) < kl_j_distance(p, far)

    def test_empty_distribution_is_infinite(self):
        assert kl_j_distance(np.zeros(4), np.ones(4)) == np.inf


class TestKLJCalibration:
    def test_clips_long_tailed_distribution(self, rng):
        """For a heavy-tailed distribution the KL-J threshold is well below the
        maximum — the whole point of calibrated clipping."""
        values = np.concatenate([rng.normal(0, 1.0, 20000), rng.normal(0, 15.0, 60)])
        threshold = kl_j_calibration(values, bits=8)
        assert threshold < np.abs(values).max() * 0.9
        assert threshold > 1.0
        # at 4 bits the trade-off shifts strongly toward precision
        assert kl_j_calibration(values, bits=4) < np.abs(values).max() * 0.25

    def test_returns_positive_even_for_constant_zero(self):
        assert kl_j_calibration(np.zeros(100), bits=8) > 0

    def test_accepts_prebuilt_histogram(self, rng):
        values = rng.normal(0, 1.0, 5000)
        histogram = TensorHistogram(num_bins=512)
        histogram.update(values)
        from_hist = kl_j_calibration(histogram, bits=8)
        from_values = kl_j_calibration(values, bits=8, num_bins=512)
        assert from_hist == pytest.approx(from_values, rel=0.1)

    def test_lower_bitwidth_clips_no_less(self, rng):
        """With fewer levels, the optimal clip point cannot be (much) larger."""
        values = np.concatenate([rng.normal(0, 1.0, 20000), rng.normal(0, 8.0, 200)])
        t8 = kl_j_calibration(values, bits=8)
        t4 = kl_j_calibration(values, bits=4)
        assert t4 <= t8 * 1.25


def _loop_grow(histogram: TensorHistogram, new_max: float) -> None:
    """Reference rebinning: one old bin at a time, split by overlap."""
    if histogram.max_value == 0.0:
        histogram.max_value = new_max
        return
    old_edges = np.linspace(0.0, histogram.max_value, histogram.num_bins + 1)
    new_edges = np.linspace(0.0, new_max, histogram.num_bins + 1)
    new_counts = np.zeros_like(histogram.counts)
    old_width = old_edges[1] - old_edges[0]
    for i, count in enumerate(histogram.counts):
        if count == 0:
            continue
        lo, hi = old_edges[i], old_edges[i + 1]
        first = max(np.searchsorted(new_edges, lo, side="right") - 1, 0)
        last = min(max(np.searchsorted(new_edges, hi, side="left") - 1, first),
                   histogram.num_bins - 1)
        if first == last:
            new_counts[first] += count
            continue
        for j in range(first, last + 1):
            overlap = max(min(hi, new_edges[j + 1]) - max(lo, new_edges[j]), 0.0)
            new_counts[j] += count * overlap / old_width
    histogram.counts = new_counts
    histogram.max_value = new_max


class _LoopHistogram(TensorHistogram):
    _grow = _loop_grow


class TestTensorHistogram:
    def test_rebinning_matches_loop_reference_bit_for_bit(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            bins = int(rng.choice([16, 64, 1024]))
            vectorized, reference = TensorHistogram(bins), _LoopHistogram(bins)
            for _ in range(int(rng.integers(2, 8))):
                scale = float(rng.choice([1e-3, 0.5, 1.0, 3.0, 100.0])) * rng.uniform(0.5, 2.0)
                values = rng.standard_normal(int(rng.integers(1, 500))) * scale
                if rng.random() < 0.3:
                    values = np.round(values, 1)   # piles counts onto shared edges
                vectorized.update(values)
                reference.update(values)
            np.testing.assert_array_equal(vectorized.counts, reference.counts)
            assert vectorized.max_value == reference.max_value

    def test_counts_accumulate(self, rng):
        histogram = TensorHistogram(num_bins=64)
        histogram.update(rng.normal(0, 1, 100))
        histogram.update(rng.normal(0, 1, 100))
        assert histogram.total == 200
        assert histogram.counts.sum() == pytest.approx(200, rel=0.01)

    def test_range_grows_with_new_maxima(self, rng):
        histogram = TensorHistogram(num_bins=64)
        histogram.update(rng.uniform(-1, 1, 100))
        first_max = histogram.max_value
        histogram.update(np.array([50.0]))
        assert histogram.max_value == 50.0 > first_max
        assert histogram.counts.sum() == pytest.approx(101, rel=0.02)

    def test_observed_min_max(self):
        histogram = TensorHistogram()
        histogram.update(np.array([-3.0, 7.0]))
        assert histogram.observed_min == -3.0
        assert histogram.observed_max == 7.0

    def test_all_zero_batch(self):
        histogram = TensorHistogram()
        histogram.update(np.zeros(10))
        assert histogram.total == 10

    def test_empty_batch_noop(self):
        histogram = TensorHistogram()
        histogram.update(np.array([]))
        assert histogram.total == 0

    def test_density_sums_to_one(self, rng):
        histogram = TensorHistogram(num_bins=32)
        histogram.update(rng.normal(0, 1, 500))
        assert histogram.density().sum() == pytest.approx(1.0)

    def test_rejects_too_few_bins(self):
        with pytest.raises(ValueError):
            TensorHistogram(num_bins=4)
