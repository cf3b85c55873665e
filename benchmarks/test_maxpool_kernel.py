"""Max-pool kernel vectorization — before/after the offset-shift rewrite.

The per-step profiler flagged max-pool as ~38% of the optimized VGG plan:
the old kernel reduced over the trailing two axes of a 6-D strided window
view, which walks memory kernel-element-by-window.  The shipped kernel
(:func:`repro.engine.kernels.max_pool_codes`) instead folds the ``KH*KW``
kernel offsets into the output with dense elementwise maxima — bit-identical
output, near-contiguous traffic.  This benchmark times the retained
reference (:func:`max_pool_codes_reference`) against the shipped kernel on
the pool shapes the model zoo actually runs, asserts bit-exactness first,
and records the before/after in ``benchmarks/reports/`` plus the end-to-end
effect on the optimized VGG plan's max-pool share.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro import deploy
from repro.analysis import format_table
from repro.autograd.conv import conv_output_size
from repro.engine.kernels import max_pool_codes, max_pool_codes_reference

#: shared CI runners jitter; the double-digit local speedup leaves headroom
MIN_SPEEDUP = float(os.environ.get("MAXPOOL_BENCH_MIN_SPEEDUP", "2.0"))

#: (label, input shape, kernel, stride, padding) — the zoo's pool configs
CASES = [
    ("vgg_stage1", (8, 16, 16, 16), (2, 2), (2, 2), (0, 0)),
    ("vgg_stage2", (8, 32, 8, 8), (2, 2), (2, 2), (0, 0)),
    ("vgg_wide", (8, 64, 16, 16), (2, 2), (2, 2), (0, 0)),
    ("overlap_k3s2p1", (8, 32, 16, 16), (3, 3), (2, 2), (1, 1)),
    ("dense_k3s1p1", (4, 16, 16, 16), (3, 3), (1, 1), (1, 1)),
]


def _time_best(fn, repeats: int = 9, inner: int = 10) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - start) / inner)
    return best


def test_maxpool_vectorization(report_writer):
    rng = np.random.default_rng(0)
    rows = []
    speedups = {}
    for label, shape, kernel, stride, padding in CASES:
        n, c, h, w = shape
        x = np.rint(rng.standard_normal(shape) * 30.0)
        oh = conv_output_size(h, kernel[0], stride[0], padding[0])
        ow = conv_output_size(w, kernel[1], stride[1], padding[1])
        out_new = np.empty((n, c, oh, ow))
        out_ref = np.empty((n, c, oh, ow))
        pad_shape = (n, c, h + 2 * padding[0], w + 2 * padding[1])
        padded_new = np.zeros(pad_shape) if any(padding) else None
        padded_ref = np.zeros(pad_shape) if any(padding) else None

        max_pool_codes(x, kernel, stride, padding, padded_new, out_new)
        max_pool_codes_reference(x, kernel, stride, padding, padded_ref, out_ref)
        np.testing.assert_array_equal(out_new, out_ref, err_msg=label)

        t_new = _time_best(lambda: max_pool_codes(
            x, kernel, stride, padding, padded_new, out_new))
        t_ref = _time_best(lambda: max_pool_codes_reference(
            x, kernel, stride, padding, padded_ref, out_ref))
        speedups[label] = t_ref / t_new
        rows.append([label, f"{n}x{c}x{h}x{w}",
                     f"{kernel[0]}x{kernel[1]}/s{stride[0]}/p{padding[0]}",
                     f"{t_ref * 1e6:.1f}", f"{t_new * 1e6:.1f}",
                     f"{t_ref / t_new:.2f}x"])

    # End-to-end: where does max-pool sit in the optimized VGG plan now?
    deployment = deploy.compile("vgg_nano", image_size=16, batch_size=8,
                                calibration_samples=8, calibration_batch_size=8)
    profile = deployment.profile(repeats=5)
    pool_share = sum(t.share for t in profile.steps if t.op == "max_pool")

    report = format_table(
        ["case", "input", "pool", "before us", "after us", "speedup"],
        rows,
        title="Max-pool kernel: window-view reduction (before) vs "
              "offset-shift maxima (after)",
    )
    report += (f"\n\nOptimized vgg_nano plan: max-pool now "
               f"{pool_share * 100:.1f}% of the per-pass time "
               f"(was ~38% before vectorization)\n\n" + profile.table())
    report_writer("maxpool_vectorization", report)

    worst = min(speedups, key=speedups.get)
    assert speedups[worst] >= MIN_SPEEDUP, (
        f"max-pool vectorization regressed: {worst} is only "
        f"{speedups[worst]:.2f}x over the window-view reduction "
        f"(required {MIN_SPEEDUP}x)")
