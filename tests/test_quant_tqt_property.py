"""Property-based tests (hypothesis) on TQT quantizer invariants."""

import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.autograd import Tensor
from repro.quant import QuantConfig, compute_scale, tqt_quantize, tqt_quantize_unfused

values_strategy = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=1, max_value=200),
    elements=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False,
                       allow_infinity=False, width=64),
)
log2_t_strategy = st.floats(min_value=-6.0, max_value=6.0, allow_nan=False)
bits_strategy = st.sampled_from([3, 4, 6, 8])
signed_strategy = st.booleans()


@settings(max_examples=60, deadline=None)
@given(values_strategy, log2_t_strategy, bits_strategy, signed_strategy)
def test_idempotence(values, log2_t, bits, signed):
    """Quantizing an already quantized tensor changes nothing: q(q(x)) == q(x)."""
    config = QuantConfig(bits=bits, signed=signed)
    t = Tensor(np.asarray(log2_t))
    once = tqt_quantize(Tensor(values), t, config)
    twice = tqt_quantize(once, t, config)
    np.testing.assert_allclose(once.data, twice.data, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(values_strategy, log2_t_strategy, bits_strategy, signed_strategy)
def test_output_on_integer_grid_and_within_range(values, log2_t, bits, signed):
    """Outputs are integer multiples of s and stay inside [n*s, p*s]."""
    config = QuantConfig(bits=bits, signed=signed)
    s = compute_scale(log2_t, config)
    out = tqt_quantize(Tensor(values), Tensor(np.asarray(log2_t)), config).data
    codes = out / s
    np.testing.assert_allclose(codes, np.round(codes), atol=1e-6)
    assert codes.min() >= config.qmin - 1e-6
    assert codes.max() <= config.qmax + 1e-6


@settings(max_examples=60, deadline=None)
@given(values_strategy, log2_t_strategy, bits_strategy)
def test_error_bounded_inside_clipping_range(values, log2_t, bits):
    """Inside the clipping range the quantization error is at most s/2."""
    config = QuantConfig(bits=bits, signed=True)
    s = compute_scale(log2_t, config)
    low, high = (config.qmin + 0.5) * s, (config.qmax - 0.5) * s
    inside = values[(values > low) & (values < high)]
    if inside.size == 0:
        return
    out = tqt_quantize(Tensor(inside), Tensor(np.asarray(log2_t)), config).data
    assert np.max(np.abs(out - inside)) <= s / 2 + 1e-9


@settings(max_examples=60, deadline=None)
@given(values_strategy, log2_t_strategy, bits_strategy)
def test_symmetry(values, log2_t, bits):
    """Symmetric quantizer: q(-x) == -q(x) except at the asymmetric endpoint."""
    config = QuantConfig(bits=bits, signed=True)
    s = compute_scale(log2_t, config)
    # Exclude values that saturate (the signed integer range is asymmetric:
    # -2^(b-1) has no positive counterpart).
    keep = np.abs(values) < (config.qmax - 0.5) * s
    values = values[keep]
    if values.size == 0:
        return
    t = Tensor(np.asarray(log2_t))
    pos = tqt_quantize(Tensor(values), t, config).data
    neg = tqt_quantize(Tensor(-values), t, config).data
    np.testing.assert_allclose(neg, -pos, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(values_strategy, log2_t_strategy, bits_strategy)
def test_monotonicity(values, log2_t, bits):
    """The quantizer is a non-decreasing function of its input."""
    config = QuantConfig(bits=bits, signed=True)
    ordered = np.sort(values)
    out = tqt_quantize(Tensor(ordered), Tensor(np.asarray(log2_t)), config).data
    assert np.all(np.diff(out) >= -1e-12)


@settings(max_examples=60, deadline=None)
@given(values_strategy, log2_t_strategy, bits_strategy, signed_strategy)
def test_input_gradient_is_binary_mask(values, log2_t, bits, signed):
    """Eq. 8: the input gradient is exactly 0 or 1."""
    config = QuantConfig(bits=bits, signed=signed)
    x = Tensor(values, requires_grad=True)
    tqt_quantize(x, Tensor(np.asarray(log2_t)), config).sum().backward()
    assert set(np.unique(x.grad)).issubset({0.0, 1.0})


@settings(max_examples=40, deadline=None)
@given(values_strategy, st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
       bits_strategy)
def test_larger_threshold_never_clips_more(values, log2_t, bits):
    """Raising the threshold can only decrease the number of clipped elements."""
    config = QuantConfig(bits=bits, signed=True)

    def clipped_count(log_threshold):
        s = compute_scale(log_threshold, config)
        codes = np.rint(values / s)
        return int(np.count_nonzero((codes < config.qmin) | (codes > config.qmax)))

    assert clipped_count(log2_t + 1.0) <= clipped_count(log2_t)


@settings(max_examples=40, deadline=None)
@given(values_strategy, bits_strategy)
# A subnormal max|x| once underflowed the scale to 0 and returned NaN codes.
@example(np.array([5e-324]), 3)
@example(np.array([5e-324, 0.0]), 3)
def test_max_calibrated_threshold_clipping_error_bounded(values, bits):
    """With the threshold at max|x| (rounded up to a power of 2), the only
    possible clipping is the asymmetric top code (2^(b-1) saturating to
    2^(b-1)-1), so the worst-case error of any element is at most one step."""
    config = QuantConfig(bits=bits, signed=True)
    max_abs = np.abs(values).max()
    if max_abs == 0:
        return
    log2_t = float(np.log2(max_abs))
    s = compute_scale(log2_t, config)
    out = tqt_quantize(Tensor(values), Tensor(np.asarray(log2_t)), config).data
    assert np.max(np.abs(out - values)) <= s + 1e-9
    codes = np.rint(values / s)
    assert codes.min() >= config.qmin and codes.max() <= config.levels


@settings(max_examples=60, deadline=None)
@given(values_strategy, log2_t_strategy, bits_strategy, signed_strategy, st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_fused_gradients_equal_unfused(values, log2_t, bits, signed, power_of_2, seed):
    """The fused node's two closures against the unfused tape's ten nodes."""
    config = QuantConfig(bits=bits, signed=signed, power_of_2=power_of_2)
    s = float(compute_scale(log2_t, config))
    # A value whose x/s sits on a rounding tie can land either side of it on the
    # unfused tape, which builds s through exp(); keep clear of ties.
    values = values[np.abs(np.abs(values / s % 1.0) - 0.5) > 1e-6]
    upstream = np.random.default_rng(seed).standard_normal(values.shape)
    grads = []
    for quantize in (tqt_quantize, tqt_quantize_unfused):
        x = Tensor(values, requires_grad=True)
        t = Tensor(np.asarray(log2_t), requires_grad=True)
        quantize(x, t, config).backward(upstream)
        grads.append((x.grad, t.grad))
    np.testing.assert_allclose(grads[0][0], grads[1][0], rtol=1e-12)   # tape: (g * s) / s
    # Eq. 7 sums terms of either sign: bound the error by the sum of magnitudes.
    magnitude = s * np.log(2.0) * config.qmax * np.abs(upstream).sum()
    np.testing.assert_allclose(grads[0][1], grads[1][1], rtol=1e-12, atol=1e-12 * magnitude)
