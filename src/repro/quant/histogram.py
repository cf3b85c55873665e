"""Streaming histogram accumulation for activation calibration.

Activation thresholds are calibrated from a small unlabeled calibration set
(Section 5.1: a batch of 50 images sampled from the validation set).  The
histogram collector accumulates absolute-value statistics over any number of
calibration batches without keeping the activations themselves in memory.
"""

from __future__ import annotations

import numpy as np

__all__ = ["TensorHistogram"]


class TensorHistogram:
    """Fixed-bin histogram of absolute values with a growable range.

    The histogram range expands to accommodate new maxima by rebinning the
    existing counts (conservative: counts are redistributed proportionally
    between overlapping bins), so the calibration result does not depend on
    the order the batches are observed in.
    """

    def __init__(self, num_bins: int = 1024, include_zeros: bool = True) -> None:
        if num_bins < 16:
            raise ValueError("num_bins must be at least 16")
        self.num_bins = int(num_bins)
        self.include_zeros = include_zeros
        self.counts = np.zeros(self.num_bins, dtype=np.float64)
        self.max_value = 0.0
        self.total = 0
        self.observed_min = np.inf
        self.observed_max = -np.inf

    def update(self, values: np.ndarray) -> None:
        """Accumulate one batch of values into the histogram.

        With ``include_zeros=False`` exact zeros are dropped before binning:
        ReLU activations place half their mass exactly at zero, which is
        representable at any scale and would otherwise dominate (and distort)
        KL-based threshold selection.
        """
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size == 0:
            return
        self.observed_min = min(self.observed_min, float(values.min()))
        self.observed_max = max(self.observed_max, float(values.max()))
        if not self.include_zeros:
            values = values[values != 0.0]
            if values.size == 0:
                return
        magnitudes = np.abs(values)
        batch_max = float(magnitudes.max())
        if batch_max == 0.0:
            self.total += values.size
            self.counts[0] += values.size
            return
        if batch_max > self.max_value:
            self._grow(batch_max)
        bin_width = self.max_value / self.num_bins
        indices = np.minimum((magnitudes / bin_width).astype(np.int64), self.num_bins - 1)
        self.counts += np.bincount(indices, minlength=self.num_bins)
        self.total += values.size

    def _grow(self, new_max: float) -> None:
        """Expand the histogram range to ``new_max`` by proportional rebinning.

        Every non-empty old bin whose range falls in one new bin moves there
        whole; one that straddles several new bins is split in proportion to
        the overlap.  Contributions accumulate old bin by old bin, then new
        bin by new bin, so the float sums are reproducible.
        """
        if self.max_value == 0.0:
            self.max_value = new_max
            return
        old_edges = np.linspace(0.0, self.max_value, self.num_bins + 1)
        new_edges = np.linspace(0.0, new_max, self.num_bins + 1)
        old_width = old_edges[1] - old_edges[0]
        # The counts outlive this call, so they are allocated before the
        # temporaries below.  Allocated after them, they left a heap layout in
        # which malloc trimmed and regrew the heap on every later training
        # step (thousands of page faults per step on the retrain workload).
        new_counts = np.zeros_like(self.counts)
        occupied = np.flatnonzero(self.counts)
        count = self.counts[occupied]
        lo, hi = old_edges[occupied], old_edges[occupied + 1]
        first = np.maximum(np.searchsorted(new_edges, lo, side="right") - 1, 0)
        last = np.minimum(np.maximum(np.searchsorted(new_edges, hi, side="left") - 1, first),
                          self.num_bins - 1)
        # One (old bin, new bin) pair per overlap, old-bin-major.
        spans = np.maximum(last - first + 1, 0)
        row = np.repeat(np.arange(occupied.size), spans)
        col = first[row] + np.arange(row.size) - np.repeat(np.cumsum(spans) - spans, spans)
        overlap = np.maximum(np.minimum(hi[row], new_edges[col + 1])
                             - np.maximum(lo[row], new_edges[col]), 0.0)
        share = np.where((first == last)[row], count[row], count[row] * overlap / old_width)
        np.add.at(new_counts, col, share)
        self.counts = new_counts
        self.max_value = new_max

    def bin_edges(self) -> np.ndarray:
        return np.linspace(0.0, self.max_value, self.num_bins + 1)

    def density(self) -> np.ndarray:
        total = self.counts.sum()
        if total == 0:
            return np.zeros_like(self.counts)
        return self.counts / total
