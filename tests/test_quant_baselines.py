"""Unit tests for the baseline quantizer: FakeQuant (clipped-grad)."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.quant import (
    FakeQuantizer,
    QuantConfig,
    compute_scale,
    fake_quantize,
    nudge_zero_point,
    tqt_quantize,
)


class TestNudgeZeroPoint:
    def test_zero_exactly_representable(self):
        scale, zero_point, nudged_min = nudge_zero_point(-1.7, 2.3, -128, 127)
        # Real zero maps to the integer zero_point exactly.
        assert float(nudged_min + (zero_point - (-128)) * scale) == pytest.approx(0.0, abs=1e-9)

    def test_symmetric_range_gives_midpoint_zero(self):
        scale, zero_point, _ = nudge_zero_point(-1.0, 1.0, -128, 127)
        assert zero_point == pytest.approx(0.0, abs=1.0)

    def test_degenerate_range(self):
        scale, _, _ = nudge_zero_point(0.0, 0.0, -128, 127)
        assert scale > 0


class TestFakeQuantForward:
    def test_forward_matches_tqt_for_matching_thresholds(self, rng):
        """Section 3.5: the FakeQuant forward pass is mathematically equivalent
        to the TQT forward pass when the clipping range matches."""
        bits = 8
        tqt_config = QuantConfig(bits=bits, signed=True)
        fq_config = QuantConfig(bits=bits, signed=True, symmetric=False, power_of_2=False)
        threshold = 1.0  # power of two, so both quantizers share the grid
        s = compute_scale(np.log2(threshold), tqt_config)
        x = rng.uniform(-0.9, 0.9, 500)
        tqt_out = tqt_quantize(Tensor(x), Tensor(np.asarray(np.log2(threshold))), tqt_config)
        fq_out = fake_quantize(Tensor(x), Tensor(np.asarray(s * -128)),
                               Tensor(np.asarray(s * 127)), fq_config)
        np.testing.assert_allclose(tqt_out.data, fq_out.data, atol=1e-9)

    def test_values_clipped_to_range(self, rng):
        config = QuantConfig(bits=8, symmetric=False, power_of_2=False)
        out = fake_quantize(Tensor(np.array([-10.0, 10.0])), Tensor(np.asarray(-1.0)),
                            Tensor(np.asarray(1.0)), config)
        # clipping respects the (zero-point-nudged) range, which may extend the
        # requested limits by at most one quantization step
        scale = 2.0 / 255
        assert out.data.min() >= -1.0 - scale
        assert out.data.max() <= 1.0 + scale


class TestFakeQuantGradients:
    def test_threshold_gradient_zero_inside_range(self, rng):
        """The clipped-gradient pathology (Section 3.5): values inside the
        clipping range contribute nothing to the threshold gradients."""
        config = QuantConfig(bits=8, symmetric=False, power_of_2=False)
        x = Tensor(rng.uniform(-0.5, 0.5, 200))
        mn = Tensor(np.asarray(-1.0), requires_grad=True)
        mx = Tensor(np.asarray(1.0), requires_grad=True)
        fake_quantize(x, mn, mx, config).sum().backward()
        assert float(mn.grad) == 0.0
        assert float(mx.grad) == 0.0

    def test_threshold_gradients_only_push_outward_on_l2_loss(self, rng):
        """With the L2 loss, FakeQuant max-threshold gradients from outliers are
        negative (threshold grows), and there is no inward force — the
        contrast with TQT's Figure 2 behaviour."""
        config = QuantConfig(bits=8, symmetric=False, power_of_2=False)
        x_values = np.concatenate([rng.uniform(-0.5, 0.5, 100), np.array([5.0, 7.0])])
        x = Tensor(x_values)
        mn = Tensor(np.asarray(-1.0), requires_grad=True)
        mx = Tensor(np.asarray(1.0), requires_grad=True)
        out = fake_quantize(x, mn, mx, config)
        diff = out - Tensor(x_values)
        ((diff * diff) * 0.5).sum().backward()
        assert float(mx.grad) < 0.0    # gradient descent will increase max
        assert float(mn.grad) == 0.0   # nothing below min

    def test_input_gradient_masked_outside(self, rng):
        config = QuantConfig(bits=8, symmetric=False, power_of_2=False)
        x = Tensor(np.array([0.0, 3.0, -3.0]), requires_grad=True)
        fake_quantize(x, Tensor(np.asarray(-1.0)), Tensor(np.asarray(1.0)), config).sum().backward()
        np.testing.assert_allclose(x.grad, [1.0, 0.0, 0.0])


class TestFakeQuantizerModule:
    def test_symmetric_module_ties_min_to_max(self, rng):
        config = QuantConfig(bits=8, symmetric=True, power_of_2=False)
        q = FakeQuantizer(config, init_min=-2.0, init_max=2.0)
        x = Tensor(rng.standard_normal(50))
        out = q(x)
        step = 4.0 / 255
        assert out.data.max() <= 2.0 + step and out.data.min() >= -2.0 - step

    def test_per_channel_module(self, rng):
        config = QuantConfig(bits=8, symmetric=True, power_of_2=False, per_channel=True)
        q = FakeQuantizer(config, channel_count=4, channel_axis=0)
        q.initialize_min_max(-np.arange(1.0, 5.0), np.arange(1.0, 5.0))
        x = Tensor(rng.standard_normal((4, 3, 3, 3)) * 5)
        out = q(x)
        # each channel saturates at its own threshold
        for c in range(4):
            assert out.data[c].max() <= (c + 1) + 1e-6

    def test_rejects_power_of_two_config(self):
        with pytest.raises(ValueError):
            FakeQuantizer(QuantConfig(bits=8, power_of_2=True))

    def test_trainable_flag(self):
        q = FakeQuantizer(QuantConfig(bits=8, symmetric=False, power_of_2=False))
        q.set_trainable(False)
        assert not q.min_val.requires_grad and not q.max_val.requires_grad
