"""Optimizer pass pipeline: bit-exactness of every optimized tape against the
oracle (the unoptimized plan, step-interpreted with int64 accumulation) and
the fake-quant simulation, optimized-step introspection, forced kernel
variants, profiler and autotune caching."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro import deploy, nn
from repro.engine import (
    OptimizedPlan,
    PlanError,
    check_engine_parity,
    check_plan_parity,
    lower_graph,
    optimize_plan,
)
from repro.engine.plan import ExecutionPlan, _ActivationOnlyStep
from repro.graph import GraphBuilder, quantize_static
from repro.graph.ir import OpKind
from repro.models import MODEL_REGISTRY

IMAGE_SIZE = 8  # keeps every global-average-pool window a power of two
BATCH = 4
SHAPE = (BATCH, 3, IMAGE_SIZE, IMAGE_SIZE)

#: the one independent reference: no optimizer passes, pure-int64
#: accumulation, the step interpreter instead of the tape
ORACLE = dict(optimize=False, accumulate="int", mode="steps")


def _compile(name: str, **kwargs):
    return deploy.compile(name, image_size=IMAGE_SIZE, batch_size=BATCH,
                          calibration_samples=8, calibration_batch_size=4, **kwargs)


def _oracle_engine(plan: ExecutionPlan):
    return plan.bind(SHAPE, accumulate="int", mode="steps")


def _batches(count: int = 2, seed: int = 0) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(SHAPE) for _ in range(count)]


@pytest.fixture(scope="module")
def mobilenet():
    return _compile("mobilenet_v1_nano", **ORACLE)


# ---------------------------------------------------------------------- #
# Parity: optimized tape vs oracle vs simulation on every registry model
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("model_name", sorted(MODEL_REGISTRY))
def test_optimized_plan_bit_exact_on_registry_model(model_name):
    oracle = _compile(model_name, **ORACLE)
    engine = optimize_plan(oracle.plan).bind(SHAPE)
    batches = _batches(2)
    report = check_plan_parity(oracle.engine, engine, batches)
    assert report.bit_exact, f"{model_name}: {report}"
    assert report.total_codes > 0
    simulation = check_engine_parity(oracle.graph, engine, batches)
    assert simulation.bit_exact, f"{model_name} vs simulation: {simulation}"
    # Repeat the comparison: cross-pass state (shared scratch, zero-padded
    # borders) must not corrupt later passes.
    again = check_plan_parity(oracle.engine, engine, batches)
    assert again.bit_exact, f"{model_name} second pass: {again}"


def test_optimized_plan_refuses_the_oracle_lanes(mobilenet):
    """Steps mode and int64 accumulation live only on the reference plan."""
    optimized = optimize_plan(mobilenet.plan, autotune=False)
    with pytest.raises(ValueError, match="optimize=False"):
        optimized.bind(SHAPE, mode="steps")
    with pytest.raises(ValueError, match="optimize=False"):
        optimized.bind(SHAPE, accumulate="int")
    with pytest.raises(ValueError, match="optimize=False"):
        _compile("lenet_nano", accumulate="int")
    engine = optimized.bind(SHAPE)
    (batch,) = _batches(1)
    with pytest.raises(PlanError, match="optimize=False"):
        engine.run_steps(batch)
    with pytest.raises(PlanError, match="optimize=False"):
        engine.profile(batch, level="steps")


@pytest.fixture(scope="module")
def grouped_conv_plan():
    """A quantized graph with a grouped (non-depthwise) convolution.

    The registry has depthwise (groups == channels) and dense (groups == 1)
    convs but no intermediate grouped family, so the grouped ``wingemm``
    variant gets its own graph: 8 channels in 2 groups of 4.
    """
    rng = np.random.default_rng(0)
    builder = GraphBuilder("grouped_conv_test")
    x = builder.input("input")
    x = builder.layer("stem", OpKind.CONV, nn.Conv2d(3, 8, 3, padding=1, rng=rng), x)
    x = builder.layer("stem_relu", OpKind.RELU, nn.ReLU(), x)
    x = builder.layer("gconv", OpKind.CONV,
                      nn.Conv2d(8, 8, 3, padding=1, groups=2, rng=rng), x)
    x = builder.layer("gconv_relu", OpKind.RELU, nn.ReLU(), x)
    x = builder.layer("gap", OpKind.GLOBAL_AVGPOOL,
                      nn.GlobalAvgPool2d(keepdims=False), x)
    x = builder.layer("fc", OpKind.LINEAR, nn.Linear(8, 4, rng=rng), x)
    graph = builder.build(x)
    graph.eval()
    calibration = [np.random.default_rng(s).standard_normal(SHAPE) for s in (1, 2)]
    quantized = quantize_static(graph, calibration, copy=False)
    return lower_graph(quantized.graph)


@pytest.mark.parametrize("source", ["mobilenet_v1_nano", "resnet_nano", "grouped_conv"])
def test_every_tape_variant_is_bit_exact(source, grouped_conv_plan):
    """Force each surviving variant on every tunable group offering it."""
    reference = (grouped_conv_plan if source == "grouped_conv"
                 else _compile(source, **ORACLE).plan)
    oracle = _oracle_engine(reference)
    optimized = optimize_plan(reference, autotune=False)
    batches = _batches(2, seed=9)
    offered = {group.name: group.variants
               for group in optimized.bind(SHAPE).tape.tunable_groups}
    for variant in sorted({v for variants in offered.values() for v in variants}):
        assert not variant.startswith("legacy") and variant != "int"
        engine = optimized.bind(SHAPE)
        for group in engine.tape.tunable_groups:
            if variant in group.variants:
                group.choose(variant)
        engine.tape.rebuild()
        report = check_plan_parity(oracle, engine, batches)
        assert report.bit_exact, f"{source}, variant {variant}: {report}"
    if source == "grouped_conv":
        # Grouped convolutions cannot stack; the window einsum is all they have.
        assert set(offered["gconv"]) == {"wingemm", "wingemm32"}
        # The autotuner must arbitrate over the grouped variants too.
        tuned = optimize_plan(reference)
        engine = tuned.bind(SHAPE)
        assert "gconv" in tuned.kernel_choices
        report = check_plan_parity(oracle, engine, batches)
        assert report.bit_exact, f"autotuned grouped plan: {report}"
    else:
        assert {"blas", "blas32", "wingemm", "wingemm32", "stackgemm",
                "stackgemm32"} == {v for variants in offered.values() for v in variants}


def test_deploy_compile_defaults_to_optimized(mobilenet):
    compiled = _compile("mobilenet_v1_nano")
    assert isinstance(compiled.plan, OptimizedPlan)
    assert compiled.plan.report.pointwise_lowered == 4
    assert compiled.plan.report.depthwise_direct == 4
    assert compiled.plan.kernel_choices, "autotune should cache kernel choices"
    report = check_plan_parity(mobilenet.engine, compiled.engine, _batches(2))
    assert report.bit_exact, str(report)


# ---------------------------------------------------------------------- #
# Optimized-step describe() round-trip
# ---------------------------------------------------------------------- #
def test_fused_step_describe_round_trip(mobilenet):
    optimized = optimize_plan(mobilenet.plan, autotune=False)
    summary = optimized.summary()
    markers = {"pointwise-gemm[no-im2col]": 0, "fused-epilogue[depthwise-direct]": 0,
               "fused-epilogue[window-gemm]": 0, "fused-epilogue[gemm]": 0}
    for step in optimized.steps:
        text = step.describe()
        for marker in markers:
            if marker in text:
                markers[marker] += 1
        # Round-trip the output-stage annotation against the step's fields.
        match = re.search(r"out→q(\d+) f=(-?\d+)", text)
        if match and getattr(step, "output_stage", None) is not None:
            assert int(match.group(1)) == step.output_stage.bits
            assert int(match.group(2)) == step.output_stage.fraction
        # Weight-fraction annotation must survive the rewrite too.
        match = re.search(r"f_w=(-?\d+)", text)
        if match:
            assert int(match.group(1)) == step.weight_fraction
        assert text in summary
    assert markers["pointwise-gemm[no-im2col]"] == 4
    assert markers["fused-epilogue[depthwise-direct]"] == 4
    assert markers["fused-epilogue[window-gemm]"] == 1   # the stem conv
    assert markers["fused-epilogue[gemm]"] == 1          # the classifier


def test_manifest_reports_optimizer_and_choices(mobilenet):
    optimized = optimize_plan(mobilenet.plan)
    optimized.bind(SHAPE)
    manifest = optimized.manifest()
    assert manifest["optimizer"]["pointwise_lowered"] == 4
    assert "eliminate_im2col" in manifest["optimizer"]["passes"]
    assert manifest["optimizer"]["prepacked_steps"] == 10
    assert set(manifest["kernel_choices"]) == {
        s["name"] for s in manifest["steps"] if "weight_dtype" in s}
    assert manifest["int32_mac_compatible"]


# ---------------------------------------------------------------------- #
# Standalone activations
# ---------------------------------------------------------------------- #
def test_standalone_relu_stays_bit_exact_and_clamps(mobilenet):
    """A ReLU the quantize pass did not fold runs as its own instruction."""
    plan = mobilenet.plan
    relu = _ActivationOnlyStep("post_relu", OpKind.RELU, [plan.output_name])
    extended = ExecutionPlan(graph_name=plan.graph_name, input_name=plan.input_name,
                             output_name="post_relu", steps=list(plan.steps) + [relu])
    optimized = optimize_plan(extended, autotune=False)
    assert len(optimized.steps) == len(extended.steps)
    assert optimized.output_name == "post_relu"
    engine = optimized.bind(SHAPE)
    assert [i.kind for i in engine.tape._flat if i.name == "post_relu"] == ["activation"]
    report = check_plan_parity(_oracle_engine(extended), engine, _batches(2))
    assert report.bit_exact, str(report)
    # The step must actually clamp: logits contain negatives pre-ReLU.
    codes = engine.run(_batches(1)[0]).codes
    assert codes.min() == 0


# ---------------------------------------------------------------------- #
# Profiler and autotune caching
# ---------------------------------------------------------------------- #
def test_profile_reports_the_executor_the_engine_runs(mobilenet):
    engine = optimize_plan(mobilenet.plan).bind(SHAPE)
    profile = engine.profile(repeats=2)
    # An optimized engine runs its tape: one row per instruction, tunable
    # groups under the variant the tape actually chose.
    assert len(profile.steps) == engine.tape.report["instructions"]
    assert profile.total_ms > 0
    assert abs(sum(t.share for t in profile.steps) - 1.0) < 1e-9
    choices = engine.plan.kernel_choices
    assert {t.name: t.variant for t in profile.steps if t.variant} == choices
    table = profile.table()
    for timing in profile.steps:
        assert timing.name in table
    assert f"[{choices['stem_conv']}]" in table
    payload = profile.to_dict()
    assert payload["graph"] == "mobilenet_v1_nano"
    assert len(payload["steps"]) == len(profile.steps)
    # The oracle runs the step interpreter: one row per plan step.
    steps = mobilenet.profile(repeats=1)
    assert [t.name for t in steps.steps] == [s.name for s in mobilenet.plan.steps]
    assert not any(t.variant for t in steps.steps)


def test_plan_profile_convenience_binds_and_times(mobilenet):
    profile = mobilenet.plan.profile(SHAPE, repeats=1)
    assert profile.total_ms > 0


def test_cached_choices_can_be_pinned(mobilenet):
    optimized = optimize_plan(mobilenet.plan, autotune=False)
    optimized.kernel_choices = {"dws1_dw": "blas"}
    engine = optimized.bind(SHAPE)
    assert engine.tape.choices()["dws1_dw"] == "blas"
    report = check_plan_parity(mobilenet.engine, engine, _batches(1))
    assert report.bit_exact, str(report)
