"""Quantized layer wrappers implementing the Section 4.3 layer precisions.

The Graffitist-style quantization pass (:mod:`repro.graph.quantize`) rewrites
a floating-point model into these modules.  Each wrapper owns the quantizers
required by the paper's internal-precision rules:

* compute layers (conv / matmul / depthwise conv):
  ``q8(q'16(sum(q8/4(w) * q8(x))) + q'16(b))`` with the output stage delayed
  past a following ReLU/ReLU6 and switched to unsigned;
* eltwise-add: both inputs share a merged scale, output re-quantized;
* leaky-relu: 16-bit internal precision for the slope multiply;
* average pool: rewritten to a depthwise convolution with reciprocal weights
  by the graph transform, then quantized as a compute layer;
* concat: inputs share a merged scale, the op itself is lossless.

Scale *merging* (the ``q'`` marks in the paper) is expressed by routing the
tensors through the *same* quantizer module instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

from ..autograd import Tensor, concatenate, conv2d, matmul, maximum, relu, relu6
from ..nn import Conv2d, Linear, Module, Parameter
from .calibration import calibrate, kl_j_calibration
from .config import LayerPrecision, QuantConfig
from .fake_quant import FakeQuantizer
from .histogram import TensorHistogram
from .tqt import TQTQuantizer

__all__ = [
    "QuantScheme",
    "ActivationQuantizer",
    "QuantizedConv2d",
    "QuantizedLinear",
    "QuantizedAdd",
    "QuantizedConcat",
    "QuantizedLeakyReLU",
    "QuantizedInput",
]

ActivationKind = Literal["none", "relu", "relu6"]


@dataclass
class QuantScheme:
    """Quantization recipe shared by every quantizer a pass inserts.

    Attributes
    ----------
    method: ``"tqt"`` (paper) or ``"fake_quant"`` (clipped-gradient baseline).
    precision: per-layer bit-widths (:class:`LayerPrecision`).
    power_of_2 / symmetric / per_channel_weights: quantizer constraints; the
        TQT configuration is (True, True, False).
    train_thresholds: whether inserted quantizers are trainable (retrain
        wt+th mode) or fixed after calibration (static / wt-only modes).
    weight_init / activation_init: calibration methods from Table 2.
    """

    method: str = "tqt"
    precision: LayerPrecision = field(default_factory=LayerPrecision)
    power_of_2: bool = True
    symmetric: bool = True
    per_channel_weights: bool = False
    train_thresholds: bool = True
    weight_init: str = "3sd"
    activation_init: str = "kl-j"

    # ------------------------------------------------------------------ #
    def _config(self, bits: int, signed: bool) -> QuantConfig:
        return QuantConfig(bits=bits, signed=signed, symmetric=self.symmetric,
                           power_of_2=self.power_of_2 and self.method == "tqt",
                           per_channel=False)

    def make_quantizer(self, bits: int, signed: bool, channel_count: int | None = None,
                       trainable: bool | None = None, name: str | None = None) -> Module:
        """Create a quantizer of the configured method."""
        trainable = self.train_thresholds if trainable is None else trainable
        if self.method == "tqt":
            config = self._config(bits, signed)
            return TQTQuantizer(config, channel_count=channel_count,
                                trainable=trainable, name=name)
        if self.method == "fake_quant":
            config = QuantConfig(bits=bits, signed=signed, symmetric=self.symmetric,
                                 power_of_2=False, per_channel=channel_count is not None)
            return FakeQuantizer(config, channel_count=channel_count,
                                 trainable=trainable, name=name)
        raise ValueError(f"unknown quantization method {self.method!r}")

    def make_weight_quantizer(self, out_channels: int, bits: int | None = None,
                              name: str | None = None) -> Module:
        bits = bits if bits is not None else self.precision.weight_bits
        channel_count = out_channels if self.per_channel_weights else None
        return self.make_quantizer(bits, signed=True, channel_count=channel_count, name=name)

    def make_bias_quantizer(self, name: str | None = None) -> Module:
        # Bias sits at the 16-bit internal precision and is never trained.
        return self.make_quantizer(self.precision.bias_bits, signed=True,
                                   trainable=False, name=name)

    def make_activation_quantizer(self, signed: bool, bits: int | None = None,
                                  name: str | None = None) -> "ActivationQuantizer":
        bits = bits if bits is not None else self.precision.activation_bits
        impl = self.make_quantizer(bits, signed=signed, name=name)
        return ActivationQuantizer(impl, init_method=self.activation_init, name=name)

    def make_internal_quantizer(self, name: str | None = None) -> "ActivationQuantizer":
        impl = self.make_quantizer(self.precision.internal_bits, signed=True,
                                   trainable=False, name=name)
        return ActivationQuantizer(impl, init_method="max", name=name)


class ActivationQuantizer(Module):
    """Activation quantizer with a calibration (statistics-collection) mode.

    In ``collect`` mode the input passes through unquantized while an
    absolute-value histogram and running min/max are accumulated; calling
    :meth:`finalize_calibration` turns the collected statistics into an
    initial threshold (KL-J by default, Table 2) and switches the module to
    ``quantize`` mode.
    """

    def __init__(self, impl: Module, init_method: str = "kl-j", name: str | None = None) -> None:
        super().__init__()
        self.impl = impl
        self.init_method = init_method
        self.name = name
        self.mode: Literal["collect", "quantize", "bypass"] = "quantize"
        # Exact zeros (e.g. from a preceding ReLU) carry no information about
        # the clipping range and are excluded from the calibration histogram.
        self.histogram = TensorHistogram(include_zeros=False)
        self._observed_values: list[np.ndarray] | None = None

    # ------------------------------------------------------------------ #
    def start_calibration(self, keep_samples: bool = False) -> None:
        self.mode = "collect"
        self.histogram = TensorHistogram(include_zeros=False)
        self._observed_values = [] if keep_samples else None

    def finalize_calibration(self) -> float:
        """Set the initial threshold from collected statistics, return it."""
        bits = self.impl.config.bits
        if self.init_method == "kl-j":
            threshold = kl_j_calibration(self.histogram, bits=bits)
        else:
            samples = (np.concatenate(self._observed_values)
                       if self._observed_values else
                       np.array([self.histogram.max_value]))
            threshold = calibrate(samples, self.init_method)
        self._apply_threshold(threshold)
        self.mode = "quantize"
        return threshold

    def _apply_threshold(self, threshold: float) -> None:
        if isinstance(self.impl, TQTQuantizer):
            self.impl.initialize_from(threshold)
        elif isinstance(self.impl, FakeQuantizer):
            if self.impl.config.symmetric:
                self.impl.initialize_from(threshold)
            else:
                low = min(self.histogram.observed_min, 0.0)
                high = max(self.histogram.observed_max, 0.0)
                self.impl.initialize_min_max(low, high)

    def set_mode(self, mode: Literal["collect", "quantize", "bypass"]) -> None:
        self.mode = mode

    @property
    def quantizer(self) -> Module:
        return self.impl

    def forward(self, x: Tensor) -> Tensor:
        if self.mode == "bypass":
            return x
        if self.mode == "collect":
            self.histogram.update(x.data)
            if self._observed_values is not None:
                self._observed_values.append(x.data.ravel().copy())
            return x
        return self.impl(x)

    def extra_repr(self) -> str:
        return f"mode={self.mode}, init={self.init_method}"


def _initialize_weight_and_bias(layer: Module, wrapped: Conv2d | Linear) -> None:
    """Initialize a compute layer's weight/bias thresholds from the parameter
    values (Table 2): one threshold per output channel for a per-channel
    weight quantizer, MAX for the bias."""
    quantizer, weights = layer.weight_quantizer, wrapped.weight.data
    if quantizer.channel_axis is not None:
        per_channel = np.abs(weights).reshape(weights.shape[0], -1).max(axis=1)
        if isinstance(quantizer, TQTQuantizer):
            quantizer.initialize_from(per_channel)
        else:
            quantizer.initialize_min_max(-per_channel, per_channel)
    elif isinstance(quantizer, TQTQuantizer):
        method = layer.scheme.weight_init if layer.scheme.train_thresholds else "max"
        quantizer.initialize_from(calibrate(weights, method))
    elif quantizer.config.symmetric:
        quantizer.initialize_from(calibrate(weights, "max"))
    else:
        quantizer.initialize_min_max(weights.min(), weights.max())
    if layer.bias_quantizer is not None:
        layer.bias_quantizer.initialize_from(calibrate(wrapped.bias.data, "max"))


class QuantizedConv2d(Module):
    """Quantized compute layer: convolution (+ optional fused activation).

    The wrapped convolution is expected to already have batch norm folded in
    (the graph transform guarantees this), so weights/bias here are the
    deployable values.
    """

    def __init__(self, conv: Conv2d, scheme: QuantScheme,
                 activation: ActivationKind = "none",
                 weight_bits: int | None = None,
                 output_quantizer: ActivationQuantizer | None = None,
                 quantize_internal: bool = True,
                 name: str | None = None) -> None:
        super().__init__()
        self.conv = conv
        self.scheme = scheme
        self.activation: ActivationKind = activation
        self.name = name
        self.weight_quantizer = scheme.make_weight_quantizer(
            conv.out_channels, bits=weight_bits, name=f"{name}.weight" if name else None
        )
        self.bias_quantizer = scheme.make_bias_quantizer(
            name=f"{name}.bias" if name else None
        ) if conv.bias is not None else None
        self.internal_quantizer = (
            scheme.make_internal_quantizer(name=f"{name}.acc" if name else None)
            if quantize_internal else None
        )
        # The output stage is delayed past ReLU/ReLU6 and becomes unsigned
        # when an activation follows (Section 4.3).
        signed_output = activation == "none"
        self.output_quantizer = output_quantizer or scheme.make_activation_quantizer(
            signed=signed_output, name=f"{name}.out" if name else None
        )
        self.calibrate_parameters()

    # ------------------------------------------------------------------ #
    def calibrate_parameters(self) -> None:
        """Initialize weight/bias thresholds from the parameter values (Table 2)."""
        _initialize_weight_and_bias(self, self.conv)

    def quantized_weight(self) -> Tensor:
        return self.weight_quantizer(self.conv.weight)

    def forward(self, x: Tensor) -> Tensor:
        weight = self.quantized_weight()
        bias = None
        if self.conv.bias is not None:
            bias = self.bias_quantizer(self.conv.bias) if self.bias_quantizer else self.conv.bias
        out = conv2d(x, weight, bias, stride=self.conv.stride,
                     padding=self.conv.padding, groups=self.conv.groups)
        if self.internal_quantizer is not None:
            # 16-bit accumulator emulation.  In collect/bypass mode the call is
            # needed so calibration statistics accumulate; in quantize mode it
            # is only applied once a threshold has been calibrated.
            if (self.internal_quantizer.mode != "quantize"
                    or getattr(self.internal_quantizer.impl, "calibrated", True)):
                out = self.internal_quantizer(out)
        if self.activation == "relu":
            out = relu(out)
        elif self.activation == "relu6":
            out = relu6(out)
        return self.output_quantizer(out)

    def extra_repr(self) -> str:
        return f"activation={self.activation}"


class QuantizedLinear(Module):
    """Quantized fully connected layer (same rules as the conv compute layer)."""

    def __init__(self, linear: Linear, scheme: QuantScheme,
                 activation: ActivationKind = "none",
                 weight_bits: int | None = None,
                 name: str | None = None) -> None:
        super().__init__()
        self.linear = linear
        self.scheme = scheme
        self.activation: ActivationKind = activation
        self.name = name
        self.weight_quantizer = scheme.make_weight_quantizer(
            linear.out_features, bits=weight_bits, name=f"{name}.weight" if name else None
        )
        self.bias_quantizer = scheme.make_bias_quantizer(
            name=f"{name}.bias" if name else None
        ) if linear.bias is not None else None
        signed_output = activation == "none"
        self.output_quantizer = scheme.make_activation_quantizer(
            signed=signed_output, name=f"{name}.out" if name else None
        )
        self.calibrate_parameters()

    def calibrate_parameters(self) -> None:
        _initialize_weight_and_bias(self, self.linear)

    def forward(self, x: Tensor) -> Tensor:
        weight = self.weight_quantizer(self.linear.weight)
        out = matmul(x, weight.T)
        if self.linear.bias is not None:
            bias = self.bias_quantizer(self.linear.bias) if self.bias_quantizer else self.linear.bias
            out = out + bias
        if self.activation == "relu":
            out = relu(out)
        elif self.activation == "relu6":
            out = relu6(out)
        return self.output_quantizer(out)


class QuantizedAdd(Module):
    """Eltwise-add with merged input scales: ``q8(q'8(x) + q'8(y))``."""

    def __init__(self, scheme: QuantScheme, activation: ActivationKind = "none",
                 name: str | None = None) -> None:
        super().__init__()
        self.scheme = scheme
        self.activation: ActivationKind = activation
        self.name = name
        # One shared quantizer applied to both inputs merges their scales.
        self.input_quantizer = scheme.make_activation_quantizer(
            signed=True, name=f"{name}.in" if name else None
        )
        signed_output = activation == "none"
        self.output_quantizer = scheme.make_activation_quantizer(
            signed=signed_output, name=f"{name}.out" if name else None
        )

    def forward(self, a: Tensor, b: Tensor) -> Tensor:
        out = self.input_quantizer(a) + self.input_quantizer(b)
        if self.activation == "relu":
            out = relu(out)
        elif self.activation == "relu6":
            out = relu6(out)
        return self.output_quantizer(out)


class QuantizedConcat(Module):
    """Concat with explicitly merged input scales; the op itself is lossless."""

    def __init__(self, scheme: QuantScheme, axis: int = 1, name: str | None = None) -> None:
        super().__init__()
        self.scheme = scheme
        self.axis = axis
        self.name = name
        self.input_quantizer = scheme.make_activation_quantizer(
            signed=True, name=f"{name}.in" if name else None
        )

    def forward(self, tensors: Sequence[Tensor]) -> Tensor:
        quantized = [self.input_quantizer(t) for t in tensors]
        return concatenate(quantized, axis=self.axis)


class QuantizedLeakyReLU(Module):
    """Leaky ReLU quantized with 16-bit internal precision (Section 4.3).

    ``q8(max(q'16(x), q'16(q16(alpha) * q'16(x))))`` — the slope multiply
    happens at 16-bit precision, the input scale is shared between the two
    branches through a single internal quantizer, and the 8-bit stage of the
    preceding compute layer is skipped (the graph pass arranges that).
    """

    def __init__(self, scheme: QuantScheme, negative_slope: float = 0.1,
                 name: str | None = None) -> None:
        super().__init__()
        self.scheme = scheme
        self.negative_slope = negative_slope
        self.name = name
        self.alpha = Parameter(np.asarray(float(negative_slope)), requires_grad=False)
        self.alpha_quantizer = scheme.make_quantizer(
            scheme.precision.internal_bits, signed=True, trainable=False,
            name=f"{name}.alpha" if name else None,
        )
        if isinstance(self.alpha_quantizer, TQTQuantizer):
            self.alpha_quantizer.initialize_from(abs(negative_slope) or 1e-3)
        self.internal_quantizer = scheme.make_internal_quantizer(
            name=f"{name}.internal" if name else None
        )
        self.output_quantizer = scheme.make_activation_quantizer(
            signed=True, name=f"{name}.out" if name else None
        )

    def forward(self, x: Tensor) -> Tensor:
        x16 = self.internal_quantizer(x)
        alpha_q = self.alpha_quantizer(self.alpha)
        scaled = self.internal_quantizer(alpha_q * x16)
        out = maximum(x16, scaled)
        return self.output_quantizer(out)


class QuantizedInput(Module):
    """Quantization of the primary network input (explicitly quantized once)."""

    def __init__(self, scheme: QuantScheme, name: str | None = None) -> None:
        super().__init__()
        self.quantizer = scheme.make_activation_quantizer(signed=True,
                                                          name=f"{name}.in" if name else None)
        self.name = name

    def forward(self, x: Tensor) -> Tensor:
        return self.quantizer(x)
