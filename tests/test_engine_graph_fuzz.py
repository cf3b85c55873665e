"""Differential fuzzing of the integer engine on generated graphs.

A ``hypothesis`` strategy draws small :class:`~repro.graph.GraphBuilder`
networks at 8x8 input — convolutions of every family the optimizer rewrites
(dense with k in {1, 3}, stride in {1, 2}, padding in {0, 1}, bias on or
off; depthwise; grouped; pointwise), residual adds, concats, max-pools,
leaky-ReLUs and a linear head — and statically quantizes them with 8- or
16-bit activations (16 bits leave float32 unproven for most compute steps,
which then bind their float64 lane).  On each graph the int64 steps oracle (the
reference plan, step-interpreted) must equal the optimized tape on both
sides of the kernel rule (as shipped, and with every conv flipped to its
window einsum), every bucket tape through ``run_partial``, and the
fake-quant simulation (``check_engine_parity``), and the streaming
calibrator must pick the same thresholds as the whole-graph reference.
Hypothesis shrinks a failure to a minimal graph.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from calibration_reference import whole_graph_thresholds

from repro import nn
from repro.engine import check_engine_parity, lower_graph, optimize_plan, program
from repro.graph import GraphBuilder, OpKind, clone_graph, quantize_graph, quantize_static
from repro.graph.transforms import run_default_optimizations
from repro.quant import LayerPrecision

SIZE = 8
BATCH = 4
SHAPE = (BATCH, 3, SIZE, SIZE)

_conv = st.fixed_dictionaries({
    "kind": st.just("conv"),
    "family": st.sampled_from(["dense", "depthwise", "grouped", "pointwise"]),
    "width": st.sampled_from([4, 8]),
    "kernel": st.sampled_from([1, 3]),
    "stride": st.sampled_from([1, 2]),
    "padding": st.sampled_from([0, 1]),
    "bias": st.booleans(),
    "activation": st.sampled_from(["none", "relu", "relu6", "leaky"]),
})
_block = st.one_of(
    _conv,
    st.fixed_dictionaries({"kind": st.sampled_from(["add", "concat", "maxpool"])}),
)
_recipe = st.fixed_dictionaries({
    "blocks": st.lists(_block, min_size=1, max_size=4),
    "head": st.sampled_from(["flatten", "gap"]),
    "int4_weights": st.booleans(),
    "activation_bits": st.sampled_from([8, 16]),
    "seed": st.integers(0, 2 ** 16),
})


def _build(recipe: dict):
    """The FP32 graph a recipe describes; shapes are tracked so every draw
    is valid (a kernel that no longer fits its input is padded)."""
    rng = np.random.default_rng(recipe["seed"])
    builder = GraphBuilder("fuzz")
    x = builder.input("input")
    channels, size = 3, SIZE

    def conv(x, name, c_in, spec):
        kernel, stride, padding = spec["kernel"], spec["stride"], spec["padding"]
        if spec["family"] == "pointwise":
            kernel, padding = 1, 0
        if kernel > size + 2 * padding:
            padding = 1
        if spec["family"] == "depthwise":
            c_out, op = c_in, OpKind.DEPTHWISE_CONV
            module = nn.DepthwiseConv2d(c_in, kernel, stride=stride, padding=padding,
                                        bias=spec["bias"], rng=rng)
        else:
            c_out, op = spec["width"], OpKind.CONV
            groups = 2 if spec["family"] == "grouped" and c_in % 2 == 0 else 1
            module = nn.Conv2d(c_in, c_out, kernel, stride=stride, padding=padding,
                               groups=groups, bias=spec["bias"], rng=rng)
        x = builder.layer(name, op, module, x)
        activation = spec["activation"]
        if activation == "relu":
            x = builder.layer(f"{name}_relu", OpKind.RELU, nn.ReLU(), x)
        elif activation == "relu6":
            x = builder.layer(f"{name}_relu6", OpKind.RELU6, nn.ReLU6(), x)
        elif activation == "leaky":
            x = builder.layer(f"{name}_leaky", OpKind.LEAKY_RELU, nn.LeakyReLU(0.1), x)
        return x, c_out, (size + 2 * padding - kernel) // stride + 1

    same = {"family": "dense", "kernel": 3, "stride": 1, "padding": 1, "bias": True,
            "activation": "relu"}
    for index, block in enumerate(recipe["blocks"]):
        name = f"b{index}"
        if block["kind"] == "conv":
            x, channels, size = conv(x, name, channels, block)
        elif block["kind"] == "add":
            y, _, _ = conv(x, f"{name}_res", channels, dict(same, width=channels))
            x = builder.add(f"{name}_add", x, y)
        elif block["kind"] == "concat":
            left, c_left, _ = conv(x, f"{name}_l", channels, dict(same, width=4))
            right, c_right, _ = conv(x, f"{name}_r", channels,
                                     dict(same, width=8, kernel=1, padding=0))
            x, channels = builder.concat(f"{name}_cat", [left, right]), c_left + c_right
        elif size >= 2:
            x, size = builder.layer(f"{name}_pool", OpKind.MAXPOOL, nn.MaxPool2d(2), x), size // 2
    features = channels * size * size
    if recipe["head"] == "gap" and size & (size - 1) == 0:
        # The engine needs a power-of-two average window (no divisor bias).
        x = builder.layer("gap", OpKind.GLOBAL_AVGPOOL, nn.GlobalAvgPool2d(keepdims=False), x)
        features = channels
    else:
        x = builder.layer("flatten", OpKind.FLATTEN, nn.Flatten(), x)
    x = builder.layer("fc", OpKind.LINEAR, nn.Linear(features, 4, rng=rng), x)
    graph = builder.build(x)
    graph.eval()
    run_default_optimizations(graph)
    return graph


@settings(max_examples=20, deadline=None)
@given(_recipe)
def test_generated_graph_oracle_equals_every_tape_variant_and_bucket(recipe):
    rng = np.random.default_rng(recipe["seed"])
    calibration = [rng.standard_normal(SHAPE) for _ in range(2)]
    precision = LayerPrecision(weight_bits=4 if recipe["int4_weights"] else 8,
                               activation_bits=recipe["activation_bits"])
    graph = quantize_static(_build(recipe), calibration, copy=False,
                            precision=precision).graph
    reference = lower_graph(graph)
    oracle = reference.bind(SHAPE, accumulate="int", mode="steps")
    optimized = optimize_plan(reference)
    batches = [rng.standard_normal(SHAPE) for _ in range(2)]
    expected = [oracle.run(batch).codes for batch in batches]

    default = optimized.bind(SHAPE)
    assert check_engine_parity(graph, default, batches).bit_exact
    with mock.patch.object(program, "STACKGEMM_MAX_ELEMENTS", 0):
        einsums = optimized.bind(SHAPE)
    assert "stackgemm" not in "".join(einsums.tape.choices().values())
    for engine in (default, einsums):
        kernels = engine.tape.choices()
        assert [b.batch_size for b in engine._buckets] == [1, 2]
        for batch, codes in zip(batches, expected):
            np.testing.assert_array_equal(engine.run(batch).codes, codes, err_msg=kernels)
            for fill in range(1, BATCH + 1):
                np.testing.assert_array_equal(engine.run_partial(batch[:fill]).codes,
                                              codes[:fill], err_msg=f"{kernels} fill {fill}")


@settings(max_examples=20, deadline=None)
@given(_recipe)
def test_generated_graph_streaming_calibration_equals_whole_graph_reference(recipe):
    rng = np.random.default_rng(recipe["seed"])
    calibration = [rng.standard_normal(SHAPE) for _ in range(2)]
    graph = _build(recipe)
    reference = clone_graph(graph)
    streamed = quantize_static(graph, calibration)
    quantize_graph(reference, streamed.scheme)
    assert streamed.calibration_thresholds == whole_graph_thresholds(reference, calibration)
