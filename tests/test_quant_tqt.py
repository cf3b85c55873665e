"""Unit tests for the TQT quantizer: forward (Eq. 4) and gradients (Eqs. 6-8)."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.quant import QuantConfig, TQTQuantizer, compute_scale, tqt_quantize, tqt_quantize_unfused

LN2 = np.log(2.0)


def reference_gradients(x, log2_t, config):
    """Direct implementation of Eqs. 6-8 used as the oracle."""
    s = compute_scale(log2_t, config)
    scaled = x / s
    rounded = np.rint(scaled)
    below = rounded < config.qmin
    above = rounded > config.qmax
    inside = ~(below | above)
    grad_x = inside.astype(float)
    per_elem = np.where(inside, rounded - scaled,
                        np.where(below, config.qmin, config.qmax))
    grad_t = s * LN2 * per_elem
    return grad_x, grad_t


class TestForwardPass:
    def test_scale_is_power_of_two(self):
        config = QuantConfig(bits=8)
        for log2_t in (-3.2, -0.5, 0.0, 1.7, 4.0):
            s = compute_scale(log2_t, config)
            assert np.isclose(np.log2(s), np.round(np.log2(s)))

    def test_scale_formula_signed(self):
        config = QuantConfig(bits=8, signed=True)
        # threshold t = 1.0 -> ceil(log2 t) = 0 -> s = 1 / 2^(b-1)
        assert compute_scale(0.0, config) == pytest.approx(1 / 128)

    def test_scale_formula_unsigned(self):
        config = QuantConfig(bits=8, signed=False)
        assert compute_scale(0.0, config) == pytest.approx(1 / 256)

    def test_ceil_biases_scale_upward(self):
        config = QuantConfig(bits=8)
        # log2 t = 0.1 should round the threshold up to 2^1
        assert compute_scale(0.1, config) == pytest.approx(2 / 128)

    def test_output_is_multiple_of_scale(self, rng):
        config = QuantConfig(bits=8)
        x = Tensor(rng.standard_normal(1000))
        out = tqt_quantize(x, Tensor(np.asarray(0.0)), config)
        s = compute_scale(0.0, config)
        codes = out.data / s
        np.testing.assert_allclose(codes, np.round(codes), atol=1e-9)

    def test_saturation_limits(self, rng):
        config = QuantConfig(bits=4)
        x = Tensor(np.array([100.0, -100.0]))
        out = tqt_quantize(x, Tensor(np.asarray(0.0)), config)
        s = compute_scale(0.0, config)
        np.testing.assert_allclose(out.data, [config.qmax * s, config.qmin * s])

    def test_unsigned_never_negative(self, rng):
        config = QuantConfig(bits=8, signed=False)
        x = Tensor(rng.standard_normal(100))
        out = tqt_quantize(x, Tensor(np.asarray(0.0)), config)
        assert np.all(out.data >= 0)

    def test_banker_rounding_in_forward(self):
        config = QuantConfig(bits=8)
        s = compute_scale(0.0, config)
        # values exactly half-way between grid points round to even codes
        x = Tensor(np.array([0.5 * s, 1.5 * s, 2.5 * s]))
        out = tqt_quantize(x, Tensor(np.asarray(0.0)), config)
        np.testing.assert_allclose(out.data / s, [0.0, 2.0, 2.0])

    def test_quantization_error_bounded_by_half_scale(self, rng):
        config = QuantConfig(bits=8)
        x_values = rng.uniform(-0.9, 0.9, 500)  # inside threshold 1.0
        out = tqt_quantize(Tensor(x_values), Tensor(np.asarray(0.0)), config)
        assert np.max(np.abs(out.data - x_values)) <= compute_scale(0.0, config) / 2 + 1e-12

    def test_real_scaling_mode(self, rng):
        config = QuantConfig(bits=8, power_of_2=False)
        # without the ceil, threshold 0.75 maps to s = 0.75/128 (not a power of 2)
        s = compute_scale(np.log2(0.75), config)
        assert s == pytest.approx(0.75 / 128)


class TestGradients:
    @pytest.mark.parametrize("bits,signed", [(8, True), (4, True), (8, False), (3, True)])
    def test_gradients_match_equations(self, rng, bits, signed):
        config = QuantConfig(bits=bits, signed=signed)
        x_values = rng.standard_normal(300) * 2.0
        log2_t = -0.7
        x = Tensor(x_values, requires_grad=True)
        t = Tensor(np.asarray(log2_t), requires_grad=True)
        out = tqt_quantize(x, t, config)
        upstream = rng.standard_normal(300)
        out.backward(upstream)
        ref_gx, ref_gt = reference_gradients(x_values, log2_t, config)
        np.testing.assert_allclose(x.grad, upstream * ref_gx, atol=1e-12)
        np.testing.assert_allclose(float(t.grad), float((upstream * ref_gt).sum()), rtol=1e-9)

    def test_threshold_gradient_sign_inside_vs_outside(self, rng):
        """Figure 2: inputs inside the clipping range push the threshold down
        (positive gradient of the L2 loss), inputs outside push it up."""
        config = QuantConfig(bits=8)

        def l2_threshold_grad(x_values, log2_t):
            x = Tensor(x_values)
            t = Tensor(np.asarray(log2_t), requires_grad=True)
            q = tqt_quantize(x, t, config)
            diff = q - Tensor(x_values)
            ((diff * diff) * 0.5).sum().backward()
            return float(t.grad)

        inside = rng.uniform(-0.5, 0.5, 2000)      # well inside threshold 2^2
        outside = rng.uniform(6.0, 10.0, 2000) * np.sign(rng.standard_normal(2000))
        assert l2_threshold_grad(inside, 2.0) > 0      # favours precision: log2 t decreases
        assert l2_threshold_grad(outside, 2.0) < 0     # favours range: log2 t increases

    def test_input_gradient_zero_outside_clipping_range(self):
        config = QuantConfig(bits=8)
        x = Tensor(np.array([0.1, 50.0, -50.0]), requires_grad=True)
        out = tqt_quantize(x, Tensor(np.asarray(0.0)), config)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0, 0.0, 0.0])

    def test_fused_and_unfused_agree(self, rng):
        config = QuantConfig(bits=6)
        x_values = rng.standard_normal(200) * 3
        for log2_t in (-2.3, 0.0, 1.1):
            x1 = Tensor(x_values, requires_grad=True)
            t1 = Tensor(np.asarray(log2_t), requires_grad=True)
            out1 = tqt_quantize(x1, t1, config)
            out1.sum().backward()
            x2 = Tensor(x_values, requires_grad=True)
            t2 = Tensor(np.asarray(log2_t), requires_grad=True)
            out2 = tqt_quantize_unfused(x2, t2, config)
            out2.sum().backward()
            np.testing.assert_allclose(out1.data, out2.data, atol=1e-12)
            np.testing.assert_allclose(x1.grad, x2.grad, atol=1e-12)
            np.testing.assert_allclose(t1.grad, t2.grad, rtol=1e-9)

    def test_per_channel_threshold_gradients_reduce_per_channel(self, rng):
        config = QuantConfig(bits=8)
        x = Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True)
        t = Tensor(np.zeros(4), requires_grad=True)
        out = tqt_quantize(x, t, config, channel_axis=0)
        out.sum().backward()
        assert t.grad.shape == (4,)


def fused_and_unfused(x_values, log2_t, config, upstream):
    """(out, grad_x, grad_log2_t) of the fused node and of the unfused tape."""
    results = []
    for quantize in (tqt_quantize, tqt_quantize_unfused):
        x = Tensor(x_values, requires_grad=True)
        t = Tensor(np.asarray(log2_t), requires_grad=True)
        out = quantize(x, t, config)
        out.backward(upstream)
        results.append((out.data, x.grad, t.grad))
    return results


class TestFusedKernel:
    """The one-pass kernel keeps ``x/s``, the clipped codes and one bool mask;
    the unfused tape and the per-element equations are its oracles."""

    @pytest.mark.parametrize("power_of_2", [True, False])
    @pytest.mark.parametrize("signed", [True, False])
    @pytest.mark.parametrize("bits", [4, 8])
    def test_fused_equals_unfused(self, rng, bits, signed, power_of_2):
        config = QuantConfig(bits=bits, signed=signed, power_of_2=power_of_2)
        x_values = rng.standard_normal((4, 3, 5, 5)) * 1.5   # threshold 2^0.3: both tails clip
        upstream = rng.standard_normal(x_values.shape)
        fused, unfused = fused_and_unfused(x_values, 0.3, config, upstream)
        assert (np.abs(fused[0]) == np.abs(fused[0]).max()).sum() > 1   # saturation exercised
        for got, expected in zip(fused, unfused):
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14)

    def test_ties_at_the_range_edges(self):
        """Round-half-to-even decides inside vs outside *before* clipping:
        127.5 -> 128 is outside (gradient p), -128.5 -> -128 is inside.  (The
        unfused tape builds ``s`` through ``exp`` and is an ulp off 1.0 here,
        so exact ties have only the equations as their oracle.)"""
        config = QuantConfig(bits=8)                 # n = -128, p = 127, s = 1 at log2_t = 7
        x_values = np.array([127.5, -128.5, 126.5, 128.5, -129.5, 0.5, 1.5])
        rounded = np.array([128.0, -128.0, 126.0, 128.0, -130.0, 0.0, 2.0])
        inside = np.array([0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0])
        per_element = np.array([127.0, 0.5, -0.5, 127.0, -128.0, -0.5, 0.5]) * LN2
        x = Tensor(x_values, requires_grad=True)
        t = Tensor(np.asarray(7.0), requires_grad=True)
        out = tqt_quantize(x, t, config)
        np.testing.assert_array_equal(out.data, np.clip(rounded, -128, 127))
        out.sum().backward()
        np.testing.assert_array_equal(x.grad, inside)
        np.testing.assert_allclose(float(t.grad), per_element.sum(), rtol=1e-15)
        for i, expected in enumerate(per_element):
            t.zero_grad()
            tqt_quantize(x, t, config).backward(np.eye(len(x_values))[i])
            assert float(t.grad) == expected

    def test_zero_dimensional_input_and_threshold(self):
        config = QuantConfig(bits=4)
        for value in (0.3, 40.0, -40.0):
            scalar = fused_and_unfused(np.asarray(value), 1.2, config, np.asarray(1.5))
            vector = fused_and_unfused(np.asarray([value]), 1.2, config, np.asarray([1.5]))
            for path in (0, 1):
                for got, expected in zip(scalar[path], vector[0]):
                    assert np.shape(got) == ()
                    np.testing.assert_allclose(got, expected[0] if expected.ndim else expected,
                                               rtol=1e-12)

    @pytest.mark.parametrize("shape,axis", [((4, 3, 3, 3), 0), ((2, 3, 4, 4), 1)])
    @pytest.mark.parametrize("power_of_2", [True, False])
    def test_per_channel_equals_one_quantizer_per_channel(self, rng, shape, axis, power_of_2):
        config = QuantConfig(bits=4, power_of_2=power_of_2)
        x_values = rng.standard_normal(shape) * 2
        upstream = rng.standard_normal(shape)
        thresholds = rng.uniform(-1.0, 1.5, shape[axis])
        x = Tensor(x_values, requires_grad=True)
        t = Tensor(thresholds, requires_grad=True)
        out = tqt_quantize(x, t, config, channel_axis=axis)
        out.backward(upstream)
        assert t.grad.shape == thresholds.shape
        for channel, log2_t in enumerate(thresholds):
            pick = (slice(None),) * axis + (channel,)
            xc = Tensor(x_values[pick], requires_grad=True)
            tc = Tensor(np.asarray(log2_t), requires_grad=True)
            oc = tqt_quantize(xc, tc, config)
            oc.backward(upstream[pick])
            np.testing.assert_array_equal(out.data[pick], oc.data)
            np.testing.assert_array_equal(x.grad[pick], xc.grad)
            np.testing.assert_allclose(t.grad[channel], tc.grad, rtol=1e-12)

    def test_non_contiguous_upstream_gradient(self, rng):
        """A depthwise ``grad_x`` hands the quantizer a cropped view."""
        config = QuantConfig(bits=8, signed=False)
        x_values = np.abs(rng.standard_normal((2, 3, 6, 6))) * 3
        padded = rng.standard_normal((2, 3, 8, 8))
        view = padded[:, :, 1:7, 1:7]
        assert not view.flags.c_contiguous
        strided, _ = fused_and_unfused(x_values, 1.0, config, view)
        dense, _ = fused_and_unfused(x_values, 1.0, config, np.ascontiguousarray(view))
        np.testing.assert_array_equal(strided[1], dense[1])
        np.testing.assert_allclose(strided[2], dense[2], rtol=1e-12)

    def test_each_gradient_alone_equals_both_together(self, rng):
        """A frozen threshold asks only for ``grad_x``; a weight quantizer in a
        graph whose weights are constants asks only for ``grad_log2_t``."""
        config = QuantConfig(bits=4)
        x_values = rng.standard_normal((3, 4, 4)) * 2
        upstream = rng.standard_normal(x_values.shape)
        (_, both_x, both_t), _ = fused_and_unfused(x_values, 0.4, config, upstream)

        x = Tensor(x_values, requires_grad=True)
        frozen = Tensor(np.asarray(0.4))
        tqt_quantize(x, frozen, config).backward(upstream)
        np.testing.assert_array_equal(x.grad, both_x)
        assert frozen.grad is None

        constant = Tensor(x_values)
        t = Tensor(np.asarray(0.4), requires_grad=True)
        tqt_quantize(constant, t, config).backward(upstream)
        np.testing.assert_array_equal(t.grad, both_t)
        assert constant.grad is None

    def test_backward_is_pure(self, rng):
        """Nothing the closures keep is consumed: a second backward over the
        same node doubles the accumulated gradients and leaves ``g`` intact."""
        config = QuantConfig(bits=4)
        x = Tensor(rng.standard_normal(50) * 2, requires_grad=True)
        t = Tensor(np.asarray(0.0), requires_grad=True)
        upstream = rng.standard_normal(50)
        kept = upstream.copy()
        out = tqt_quantize(x, t, config)
        out.backward(upstream)
        first_x, first_t = x.grad.copy(), t.grad.copy()
        out.backward(upstream)
        np.testing.assert_array_equal(upstream, kept)
        np.testing.assert_array_equal(x.grad, 2 * first_x)
        np.testing.assert_array_equal(t.grad, 2 * first_t)


class TestTQTQuantizerModule:
    def test_threshold_and_scale_properties(self):
        q = TQTQuantizer(QuantConfig(bits=8), init_log2_t=2.0)
        assert q.threshold == pytest.approx(4.0)
        assert q.scale == pytest.approx(4.0 / 128)
        assert q.fractional_length == 5  # s = 2^-5

    def test_initialize_from_raw_threshold(self):
        q = TQTQuantizer(QuantConfig(bits=8))
        q.initialize_from(0.37)
        assert float(q.log2_t.data) == pytest.approx(np.log2(0.37))
        assert q.calibrated

    def test_initialize_from_zero_is_safe(self):
        q = TQTQuantizer(QuantConfig(bits=8))
        q.initialize_from(0.0)
        assert np.isfinite(float(q.log2_t.data))

    def test_freeze_unfreeze(self):
        q = TQTQuantizer(QuantConfig(bits=8), trainable=True)
        q.freeze()
        assert q.frozen and not q.log2_t.requires_grad
        q.unfreeze()
        assert not q.frozen and q.log2_t.requires_grad

    def test_non_trainable_quantizer_receives_no_gradient(self, rng):
        q = TQTQuantizer(QuantConfig(bits=8), trainable=False)
        x = Tensor(rng.standard_normal(10), requires_grad=True)
        q(x).sum().backward()
        assert q.log2_t.grad is None

    def test_quantize_to_integers_range(self, rng):
        q = TQTQuantizer(QuantConfig(bits=4), init_log2_t=0.0)
        codes = q.quantize_to_integers(rng.standard_normal(100) * 5)
        assert codes.min() >= -8 and codes.max() <= 7
        assert codes.dtype == np.int64

    def test_forward_matches_functional(self, rng):
        config = QuantConfig(bits=8)
        q = TQTQuantizer(config, init_log2_t=-1.0)
        x = Tensor(rng.standard_normal(50))
        np.testing.assert_allclose(q(x).data,
                                   tqt_quantize(x, Tensor(np.asarray(-1.0)), config).data)

    def test_fractional_length_requires_power_of_two(self):
        q = TQTQuantizer(QuantConfig(bits=8, power_of_2=False))
        with pytest.raises(ValueError):
            _ = q.fractional_length
