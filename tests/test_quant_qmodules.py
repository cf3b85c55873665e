"""Unit tests for the quantized layer wrappers (Section 4.3 topologies)."""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor
from repro.quant import (
    INT4_PRECISION,
    ActivationQuantizer,
    FakeQuantizer,
    QuantScheme,
    QuantizedAdd,
    QuantizedConcat,
    QuantizedConv2d,
    QuantizedInput,
    QuantizedLeakyReLU,
    QuantizedLinear,
    TQTQuantizer,
)


class TestQuantScheme:
    def test_tqt_scheme_produces_tqt_quantizers(self):
        scheme = QuantScheme(method="tqt")
        assert isinstance(scheme.make_quantizer(8, signed=True), TQTQuantizer)

    def test_fake_quant_scheme(self):
        scheme = QuantScheme(method="fake_quant", power_of_2=False)
        assert isinstance(scheme.make_quantizer(8, signed=True), FakeQuantizer)

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError):
            QuantScheme(method="nope").make_quantizer(8, signed=True)

    def test_weight_quantizer_bits_follow_precision(self):
        scheme = QuantScheme(precision=INT4_PRECISION)
        q = scheme.make_weight_quantizer(out_channels=8)
        assert q.config.bits == 4

    def test_bias_quantizer_is_16bit_and_frozen(self):
        scheme = QuantScheme()
        q = scheme.make_bias_quantizer()
        assert q.config.bits == 16 and not q.trainable

    def test_per_channel_weights_option(self):
        scheme = QuantScheme(per_channel_weights=True)
        q = scheme.make_weight_quantizer(out_channels=8)
        assert q.log2_t.data.shape == (8,)

    def test_train_thresholds_flag_propagates(self):
        scheme = QuantScheme(train_thresholds=False)
        q = scheme.make_weight_quantizer(out_channels=4)
        assert not q.trainable


class TestActivationQuantizer:
    def test_collect_mode_passes_through_and_accumulates(self, rng):
        scheme = QuantScheme()
        act = scheme.make_activation_quantizer(signed=True)
        act.start_calibration()
        x = Tensor(rng.standard_normal(100))
        out = act(x)
        np.testing.assert_allclose(out.data, x.data)
        assert act.histogram.total == 100

    def test_finalize_switches_to_quantize_mode(self, rng):
        scheme = QuantScheme()
        act = scheme.make_activation_quantizer(signed=True)
        act.start_calibration()
        act(Tensor(rng.standard_normal(500)))
        threshold = act.finalize_calibration()
        assert act.mode == "quantize"
        assert threshold > 0
        assert act.impl.calibrated

    def test_bypass_mode(self, rng):
        scheme = QuantScheme()
        act = scheme.make_activation_quantizer(signed=True)
        act.set_mode("bypass")
        x = Tensor(rng.standard_normal(10))
        assert act(x) is x

    def test_quantize_mode_quantizes(self, rng):
        scheme = QuantScheme()
        act = scheme.make_activation_quantizer(signed=True)
        act.start_calibration()
        act(Tensor(rng.standard_normal(500)))
        act.finalize_calibration()
        out = act(Tensor(rng.standard_normal(100)))
        codes = out.data / act.impl.scale
        np.testing.assert_allclose(codes, np.round(codes), atol=1e-8)

    def test_max_init_method_uses_kept_samples(self, rng):
        act = ActivationQuantizer(TQTQuantizer(__import__("repro").quant.QuantConfig(bits=8)),
                                  init_method="max")
        act.start_calibration(keep_samples=True)
        act(Tensor(np.array([0.5, -2.5, 1.0])))
        threshold = act.finalize_calibration()
        assert threshold == pytest.approx(2.5)


class TestQuantizedConv2d:
    def test_forward_shape_and_quantized_output(self, rng):
        conv = nn.Conv2d(3, 8, 3, padding=1, rng=rng)
        layer = QuantizedConv2d(conv, QuantScheme(), activation="relu", name="conv1")
        layer.output_quantizer.start_calibration()
        layer(Tensor(rng.standard_normal((2, 3, 6, 6))))
        layer.output_quantizer.finalize_calibration()
        out = layer(Tensor(rng.standard_normal((2, 3, 6, 6))))
        assert out.shape == (2, 8, 6, 6)
        assert np.all(out.data >= 0)  # relu fused before the unsigned output stage

    def test_weight_quantizer_calibrated_at_construction(self, rng):
        conv = nn.Conv2d(3, 4, 3, rng=rng)
        layer = QuantizedConv2d(conv, QuantScheme(weight_init="3sd"))
        assert layer.weight_quantizer.calibrated

    def test_unsigned_output_only_with_activation(self, rng):
        conv = nn.Conv2d(3, 4, 3, rng=rng)
        with_act = QuantizedConv2d(conv, QuantScheme(), activation="relu")
        without_act = QuantizedConv2d(nn.Conv2d(3, 4, 3, rng=rng), QuantScheme())
        assert not with_act.output_quantizer.impl.config.signed
        assert without_act.output_quantizer.impl.config.signed

    def test_weight_bits_override(self, rng):
        conv = nn.Conv2d(3, 4, 3, rng=rng)
        layer = QuantizedConv2d(conv, QuantScheme(precision=INT4_PRECISION), weight_bits=8)
        assert layer.weight_quantizer.config.bits == 8

    def test_quantized_weight_is_on_grid(self, rng):
        conv = nn.Conv2d(3, 4, 3, rng=rng)
        layer = QuantizedConv2d(conv, QuantScheme())
        wq = layer.quantized_weight().data
        scale = layer.weight_quantizer.scale
        codes = wq / scale
        np.testing.assert_allclose(codes, np.round(codes), atol=1e-8)

    def test_training_updates_weight_threshold(self, rng):
        conv = nn.Conv2d(2, 2, 3, rng=rng)
        layer = QuantizedConv2d(conv, QuantScheme(), quantize_internal=False)
        layer.output_quantizer.set_mode("bypass")
        x = Tensor(rng.standard_normal((2, 2, 5, 5)))
        out = layer(x)
        out.sum().backward()
        assert layer.weight_quantizer.log2_t.grad is not None

    def test_fake_quant_scheme_per_channel_weights(self, rng):
        conv = nn.Conv2d(3, 6, 3, rng=rng)
        scheme = QuantScheme(method="fake_quant", power_of_2=False, per_channel_weights=True)
        layer = QuantizedConv2d(conv, scheme)
        assert isinstance(layer.weight_quantizer, FakeQuantizer)
        assert layer.weight_quantizer.min_val.data.shape == (6,)


class TestQuantizedLinear:
    def test_forward_and_activation(self, rng):
        linear = nn.Linear(8, 4, rng=rng)
        layer = QuantizedLinear(linear, QuantScheme(), activation="none")
        layer.output_quantizer.start_calibration()
        layer(Tensor(rng.standard_normal((3, 8))))
        layer.output_quantizer.finalize_calibration()
        out = layer(Tensor(rng.standard_normal((3, 8))))
        assert out.shape == (3, 4)


    def test_fake_quant_per_channel_weights_initialized_per_channel(self, rng):
        linear = nn.Linear(8, 4, rng=rng)
        scheme = QuantScheme(method="fake_quant", power_of_2=False, per_channel_weights=True)
        layer = QuantizedLinear(linear, scheme)
        np.testing.assert_array_equal(layer.weight_quantizer.max_val.data,
                                      np.abs(linear.weight.data).max(axis=1))


class TestStructuralQuantizedOps:
    def test_quantized_add_shares_input_scale(self, rng):
        add = QuantizedAdd(QuantScheme(), name="add")
        # the same ActivationQuantizer instance quantizes both inputs
        assert add.input_quantizer is add.input_quantizer
        add.input_quantizer.start_calibration()
        add.output_quantizer.start_calibration()
        a = Tensor(rng.standard_normal((2, 4, 3, 3)))
        b = Tensor(rng.standard_normal((2, 4, 3, 3)))
        add(a, b)
        add.input_quantizer.finalize_calibration()
        add.output_quantizer.finalize_calibration()
        out = add(a, b)
        assert out.shape == (2, 4, 3, 3)

    def test_quantized_concat_is_lossless_on_quantized_inputs(self, rng):
        concat = QuantizedConcat(QuantScheme(), axis=1, name="concat")
        concat.input_quantizer.start_calibration()
        a = Tensor(rng.standard_normal((2, 3, 4, 4)))
        b = Tensor(rng.standard_normal((2, 5, 4, 4)))
        concat([a, b])
        concat.input_quantizer.finalize_calibration()
        out = concat([a, b])
        assert out.shape == (2, 8, 4, 4)
        # feeding the quantizer's own output back through changes nothing
        again = concat([Tensor(out.data[:, :3]), Tensor(out.data[:, 3:])])
        np.testing.assert_allclose(again.data, out.data, atol=1e-12)

    def test_quantized_leaky_relu(self, rng):
        layer = QuantizedLeakyReLU(QuantScheme(), negative_slope=0.1, name="leaky")
        layer.internal_quantizer.start_calibration()
        layer.output_quantizer.start_calibration()
        x = Tensor(rng.standard_normal((2, 4, 3, 3)) * 2)
        layer(x)
        layer.internal_quantizer.finalize_calibration()
        layer.output_quantizer.finalize_calibration()
        out = layer(x)
        # negative inputs are scaled by ~alpha, positive inputs pass through
        assert out.data.min() > x.data.min() * 0.2
        assert out.data.max() <= x.data.max() + 0.1

    def test_quantized_input(self, rng):
        qin = QuantizedInput(QuantScheme(), name="input")
        qin.quantizer.start_calibration()
        qin(Tensor(rng.standard_normal((2, 3, 4, 4))))
        qin.quantizer.finalize_calibration()
        out = qin(Tensor(rng.standard_normal((2, 3, 4, 4))))
        assert out.shape == (2, 3, 4, 4)
