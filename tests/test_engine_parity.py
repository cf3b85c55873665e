"""Integer engine: bit-exactness against the fake-quant simulation, buffer
safety and plan lowering."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import deploy
from repro.engine import (
    PlanError,
    check_engine_parity,
    lower_graph,
)
from repro.engine.plan import _BufferPool
from repro.graph import OpKind
from repro.models import MODEL_REGISTRY, build_model
from repro.quant import (
    FakeQuantizer,
    QuantConfig,
    TQTQuantizer,
    requantize_codes,
    shift_requantize,
)

IMAGE_SIZE = 8  # keeps every global-average-pool window a power of two
BATCH = 4


def _compile(name: str, **kwargs):
    return deploy.compile(name, image_size=IMAGE_SIZE, batch_size=BATCH,
                          calibration_samples=8, calibration_batch_size=4, **kwargs)


def _batches(count: int = 2, seed: int = 0) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((BATCH, 3, IMAGE_SIZE, IMAGE_SIZE)) for _ in range(count)]


# ---------------------------------------------------------------------- #
# Parity: every registry model, bit-exact
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("model_name", sorted(MODEL_REGISTRY))
def test_engine_bit_exact_on_registry_model(model_name):
    compiled = _compile(model_name)
    report = check_engine_parity(compiled.graph, compiled.engine, _batches(2))
    assert report.bit_exact, f"{model_name}: {report}"
    assert report.total_codes > 0


@pytest.mark.parametrize("model_name", ["lenet_nano", "mobilenet_v1_nano", "darknet_nano"])
def test_pure_int64_backend_matches(model_name):
    """The int64 einsum oracle produces the same codes as the BLAS-lane tape,
    and as the reference plan's own BLAS lanes."""
    compiled = _compile(model_name)
    oracle = _compile(model_name, optimize=False, accumulate="int", mode="steps")
    (batch,) = _batches(1)
    pure = oracle.run(batch)
    np.testing.assert_array_equal(compiled.run(batch).codes, pure.codes)
    reference_blas = oracle.plan.bind((BATCH, 3, IMAGE_SIZE, IMAGE_SIZE), mode="steps")
    np.testing.assert_array_equal(reference_blas.run(batch).codes, pure.codes)
    report = check_engine_parity(oracle.graph, oracle.engine, [batch])
    assert report.bit_exact


# ---------------------------------------------------------------------- #
# Bucket tapes: every fill on its power-of-two bucket, bit-exact
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def deployed():
    """``deployed(name)`` -> (default deployment, int64 steps-mode oracle)."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = (_compile(name),
                           _compile(name, optimize=False, accumulate="int", mode="steps"))
        return cache[name]

    return get


def _images(rng, fill: int) -> np.ndarray:
    return rng.standard_normal((fill, 3, IMAGE_SIZE, IMAGE_SIZE))


@pytest.mark.parametrize("model_name", sorted(MODEL_REGISTRY))
def test_every_fill_matches_the_oracle(model_name, deployed):
    compiled, oracle = deployed(model_name)
    engine = compiled.engine
    assert [bucket.batch_size for bucket in engine._buckets] == [1, 2]
    rng = np.random.default_rng(17)
    for fill in range(1, BATCH + 1):
        images = _images(rng, fill)
        np.testing.assert_array_equal(engine.run_partial(images).codes,
                                      oracle.engine.run_partial(images).codes)


@pytest.mark.parametrize("model_name", sorted(MODEL_REGISTRY))
@settings(max_examples=6, deadline=None)
@given(fills=st.lists(st.integers(0, BATCH), min_size=1, max_size=6),
       seed=st.integers(0, 2 ** 16))
def test_interleaved_bucket_and_full_runs_match_the_oracle(model_name, deployed,
                                                           fills, seed):
    """Buckets write through views of the B tape's arena: any interleaving of
    ``run`` (fill 0 here) and ``run_partial`` stays bit-exact, and a closing
    full-batch ``run`` finds every zero border intact."""
    compiled, oracle = deployed(model_name)
    rng = np.random.default_rng(seed)
    for fill in [*fills, 0]:
        if fill == 0:
            images = _images(rng, BATCH)
            got, want = compiled.engine.run(images), oracle.engine.run(images)
        else:
            images = _images(rng, fill)
            got = compiled.engine.run_partial(images)
            want = oracle.engine.run_partial(images)
        np.testing.assert_array_equal(got.codes, want.codes)


@pytest.mark.parametrize("model_name", sorted(MODEL_REGISTRY))
def test_bucket_tapes_live_in_the_engine_arena(model_name, deployed):
    engine = deployed(model_name)[0].engine
    bucket_bytes = sum(bucket._pool.bytes_created for bucket in engine._buckets)
    assert bucket_bytes <= 0.05 * engine._pool.bytes_created
    for bucket in engine._buckets:
        assert np.shares_memory(bucket.tape.input_buffer, engine.tape.input_buffer)
        assert bucket.plan is engine.plan
        assert bucket.tape.choices() == engine.tape.choices()


def test_bucket_pool_lends_each_live_donor_buffer_once_and_by_zero_key():
    donor = _BufferPool()
    plain = donor.acquire((4, 3, 6, 6), fresh=True)
    border_a = donor.acquire((4, 3, 6, 6), zero_key=("pad", 1))
    border_b = donor.acquire((4, 3, 6, 6), zero_key=("pad", 2))
    donor.acquire((4, 5), fresh=True)        # dropped by its engine: never lent
    bucket = _BufferPool(donor=donor)
    view = bucket.acquire((2, 3, 6, 6), zero_key=("pad", 2))
    assert np.shares_memory(view, border_b) and view.shape == (2, 3, 6, 6)
    assert np.shares_memory(bucket.acquire((2, 3, 6, 6), fresh=True), plain)
    fresh = bucket.acquire((2, 3, 6, 6), fresh=True)     # ``plain`` is taken
    dropped = bucket.acquire((2, 5), fresh=True)
    assert not any(np.shares_memory(fresh, big) for big in (plain, border_a, border_b))
    assert bucket.bytes_created == fresh.nbytes + dropped.nbytes


def test_buckets_only_for_batched_optimized_tapes(deployed):
    compiled, oracle = deployed("lenet_nano")
    assert oracle.engine._buckets == []
    shape = compiled.engine.input_shape
    assert compiled.plan.bind((1, *shape[1:]))._buckets == []
    unoptimized = _compile("lenet_nano", optimize=False, mode="steps")
    assert unoptimized.engine.mode == "steps" and unoptimized.engine._buckets == []
    # A batch that is not a power of two: fills above the largest bucket
    # run on the engine itself.
    engine = compiled.plan.bind((6, *shape[1:]))
    assert [bucket.batch_size for bucket in engine._buckets] == [1, 2, 4]
    rng = np.random.default_rng(5)
    for fill in (3, 5, 6):
        images = _images(rng, fill)
        want = np.concatenate([oracle.engine.run_partial(images[:BATCH]).codes,
                               *([oracle.engine.run_partial(images[BATCH:]).codes]
                                 if fill > BATCH else [])])
        np.testing.assert_array_equal(engine.run_partial(images).codes, want)


# ---------------------------------------------------------------------- #
# Buffer reuse safety
# ---------------------------------------------------------------------- #
def test_buffer_reuse_does_not_alias_across_batches():
    # optimize=False: the optimizer's scratch buffers (counted by the same
    # pool) would mask the linear-scan output-buffer reuse asserted here.
    compiled = _compile("lenet_nano", optimize=False, mode="steps")
    engine = compiled.engine
    assert engine.buffers_created < len(engine.steps) + 1, \
        "the linear-scan allocator should reuse at least one buffer"
    a, b = _batches(2, seed=7)
    out_a = engine.run(a)
    snapshot = out_a.codes.copy()
    out_b = engine.run(b)
    # The first result must be a private copy, untouched by the second run.
    np.testing.assert_array_equal(out_a.codes, snapshot)
    assert out_a.codes is not out_b.codes
    assert not np.shares_memory(out_a.codes, out_b.codes)
    assert not np.array_equal(out_a.codes, out_b.codes), \
        "different inputs should produce different logits"
    # Re-running the first batch reproduces the first result exactly.
    np.testing.assert_array_equal(engine.run(a).codes, snapshot)


def test_engine_rejects_wrong_input_shape():
    compiled = _compile("lenet_nano")
    with pytest.raises(ValueError, match="bound to input shape"):
        compiled.engine.run(np.zeros((BATCH, 3, IMAGE_SIZE + 1, IMAGE_SIZE)))


# ---------------------------------------------------------------------- #
# Lowering
# ---------------------------------------------------------------------- #
def test_lowering_requires_quantized_graph():
    graph = build_model("lenet_nano", num_classes=4, seed=0)
    with pytest.raises(PlanError):
        lower_graph(graph)


@pytest.mark.parametrize("quantizer, message", [
    (lambda c: FakeQuantizer(QuantConfig(bits=8, power_of_2=False)), "TQT quantizers"),
    (lambda c: TQTQuantizer(QuantConfig(bits=8, power_of_2=False)), "power-of-2"),
    (lambda c: TQTQuantizer(QuantConfig(bits=8), channel_count=c), "per-channel"),
], ids=["non-tqt", "non-power-of-2", "per-channel"])
def test_lowering_rejects_quantizers_the_engine_cannot_run(quantizer, message):
    graph = _compile("lenet_nano", optimize=False, mode="steps").graph
    conv = next(node.module for node in graph.topological_order()
                if node.op == OpKind.QUANT_CONV)
    conv.weight_quantizer = quantizer(conv.conv.out_channels)
    with pytest.raises(PlanError, match=message):
        lower_graph(graph)


def test_non_power_of_two_avgpool_divisor_is_rejected():
    # image_size=12 pools down to a 3x3 global-average window (divisor 9);
    # the engine cannot guarantee bit-exactness there and must refuse.
    with pytest.raises(PlanError, match="not a power of two"):
        deploy.compile("resnet_nano", image_size=12, batch_size=2,
                       calibration_samples=4, calibration_batch_size=2)


def test_graph_lower_plan_hook_and_manifest():
    compiled = _compile("vgg_nano")
    plan = compiled.graph.lower_plan()
    assert plan.graph_name == "vgg_nano"
    manifest = plan.manifest()
    compute = [s for s in manifest["steps"] if "weight_dtype" in s]
    assert compute and all(s["weight_dtype"] == "int8" for s in compute)
    assert manifest["int32_mac_compatible"]
    assert manifest["weight_bytes"] > 0
    assert "quant_conv" in plan.summary()


def test_output_scale_dequantizes_to_simulation_values():
    compiled = _compile("lenet_nano")
    (batch,) = _batches(1)
    from repro.engine import simulate_reference

    reference = simulate_reference(compiled.graph, batch)
    np.testing.assert_array_equal(compiled.engine.run(batch).dequantize(), reference)


# ---------------------------------------------------------------------- #
# Shared requantization helper
# ---------------------------------------------------------------------- #
def test_requantize_codes_matches_shift_requantize():
    rng = np.random.default_rng(11)
    acc = rng.integers(-(2 ** 20), 2 ** 20, size=(64,))
    config = QuantConfig(bits=8, signed=True)
    for shift in (-2, 0, 3, 9):
        expected = shift_requantize(acc, shift, config)
        got = requantize_codes(acc.astype(np.float64), shift, config.qmin, config.qmax)
        np.testing.assert_array_equal(got, expected.astype(np.float64))


def test_requantize_codes_power_of_two_divisor_is_exact():
    acc = np.array([31.0, 32.0, 33.0, -31.0, -33.0, 48.0])
    # value = acc / 64 with round-half-to-even: 32/64 = 0.5 -> 0, 48/64 = 0.75 -> 1
    got = requantize_codes(acc, 0, -128, 127, divisor=64)
    np.testing.assert_array_equal(got, [0.0, 0.0, 1.0, 0.0, -1.0, 1.0])


# ---------------------------------------------------------------------- #
# Max-pool kernel: offset-shift rewrite vs the window-view reference
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("shape,kernel,stride,padding", [
    ((2, 4, 8, 8), (2, 2), (2, 2), (0, 0)),      # the VGG non-overlap pool
    ((2, 3, 9, 9), (3, 3), (2, 2), (1, 1)),      # overlapping, padded
    ((1, 2, 7, 5), (3, 2), (2, 3), (1, 0)),      # asymmetric everything
    ((2, 2, 6, 6), (3, 3), (1, 1), (1, 1)),      # dense stride-1
])
def test_max_pool_codes_matches_reference(shape, kernel, stride, padding):
    from repro.autograd.conv import conv_output_size
    from repro.engine.kernels import max_pool_codes, max_pool_codes_reference

    rng = np.random.default_rng(13)
    x = np.rint(rng.standard_normal(shape) * 40.0)
    n, c, h, w = shape
    oh = conv_output_size(h, kernel[0], stride[0], padding[0])
    ow = conv_output_size(w, kernel[1], stride[1], padding[1])
    out = np.empty((n, c, oh, ow))
    ref = np.empty((n, c, oh, ow))
    pad_shape = (n, c, h + 2 * padding[0], w + 2 * padding[1])
    padded = np.zeros(pad_shape) if any(padding) else None
    padded_ref = np.zeros(pad_shape) if any(padding) else None
    # Two passes: the second reuses the padded buffer, whose border zeros
    # must survive the first call (the kernel never rewrites the border).
    for _ in range(2):
        max_pool_codes(x, kernel, stride, padding, padded, out)
        max_pool_codes_reference(x, kernel, stride, padding, padded_ref, ref)
        np.testing.assert_array_equal(out, ref)
