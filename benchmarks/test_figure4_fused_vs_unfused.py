"""Figure 4 — fused vs unfused quantization kernels.

The paper ships fused CPU/GPU kernels because the unfused (native-op +
``tf.stop_gradient``) construction keeps every intermediate tensor alive for
the backward pass, inflating training memory and time.  This bench verifies
the two implementations are numerically identical (forward and gradients)
and measures the training-step overhead of the unfused composition on an
activation of the ``tqt_retrain`` operating point (batch 8 x 16 channels x
32 x 32); the memory argument is quantified by counting the tape nodes each
keeps alive.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis import format_table
from repro.autograd import Tensor
from repro.quant import QuantConfig, tqt_quantize, tqt_quantize_unfused


def _count_tape_nodes(output: Tensor) -> int:
    """Number of distinct autograd nodes reachable from ``output``."""
    seen: set[int] = set()
    stack = [output]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(parent for parent, _ in node._parents)
    return len(seen)


def _train_step(quantize_fn, x_values: np.ndarray, upstream: np.ndarray,
                config: QuantConfig) -> tuple[np.ndarray, float]:
    """Forward and backward of one quantizer as a layer inside a network sees
    it: an upstream gradient comes in, both of its gradients go out."""
    x = Tensor(x_values, requires_grad=True)
    log2_t = Tensor(np.asarray(-0.7), requires_grad=True)
    quantize_fn(x, log2_t, config).backward(upstream)
    return x.grad, float(log2_t.grad)


def test_figure4_fused_vs_unfused(benchmark, report_writer):
    config = QuantConfig(bits=8)
    rng = np.random.default_rng(0)
    x_values = rng.standard_normal((8, 16, 32, 32))
    upstream = rng.standard_normal(x_values.shape)

    fused_grads = _train_step(tqt_quantize, x_values, upstream, config)
    unfused_grads = _train_step(tqt_quantize_unfused, x_values, upstream, config)
    np.testing.assert_allclose(fused_grads[0], unfused_grads[0], rtol=1e-12)
    assert np.isclose(fused_grads[1], unfused_grads[1], rtol=1e-9)

    x = Tensor(x_values, requires_grad=True)
    t = Tensor(np.asarray(-0.7), requires_grad=True)
    fused_nodes = _count_tape_nodes(tqt_quantize(x, t, config))
    unfused_nodes = _count_tape_nodes(tqt_quantize_unfused(x, t, config))

    # Interleaved repeats, minima compared: a burst of host noise lands on both
    # kernels and the minimum is the run it did not touch.
    times = {tqt_quantize: [], tqt_quantize_unfused: []}
    for _ in range(30):
        for fn, samples in times.items():
            start = time.perf_counter()
            _train_step(fn, x_values, upstream, config)
            samples.append(time.perf_counter() - start)
    fused_time, unfused_time = min(times[tqt_quantize]), min(times[tqt_quantize_unfused])

    rows = [
        ["fused", f"{fused_nodes}", f"{fused_time * 1e3:.2f}"],
        ["unfused (stop-gradient composition)", f"{unfused_nodes}", f"{unfused_time * 1e3:.2f}"],
        ["unfused / fused", f"{unfused_nodes / fused_nodes:.1f}x",
         f"{unfused_time / fused_time:.1f}x"],
    ]
    report_writer("figure4_fused_vs_unfused",
                  format_table(["kernel", "live tape nodes", "train-step time (ms)"], rows,
                               title="Figure 4 — fused vs unfused quantization kernel"))

    # The fused kernel keeps fewer intermediates alive and is faster (Section 4.4).
    assert fused_nodes < unfused_nodes
    assert fused_time <= unfused_time

    benchmark(lambda: _train_step(tqt_quantize, x_values, upstream, config))
