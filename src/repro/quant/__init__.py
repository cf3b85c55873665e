"""Quantization core: the TQT quantizer, baselines, calibration and fixed-point kernels."""

from .config import QuantConfig, LayerPrecision, INT8_PRECISION, INT4_PRECISION
from .tqt import TQTQuantizer, tqt_quantize, tqt_quantize_unfused, compute_scale
from .fake_quant import FakeQuantizer, fake_quantize, nudge_zero_point
from .calibration import (
    calibrate,
    max_calibration,
    std_calibration,
    percentile_calibration,
    kl_j_calibration,
    kl_j_distance,
    CALIBRATION_METHODS,
)
from .histogram import TensorHistogram
from .fixed_point import (
    quantize_to_int,
    dequantize,
    code_dtype,
    requantize_codes,
    shift_requantize,
    fixed_point_multiplier,
    multiplier_requantize,
    affine_matmul_with_zero_points,
    AffineCost,
    count_affine_cost,
)
from .freezing import FreezingPolicy, ThresholdFreezer
from .qmodules import (
    QuantScheme,
    ActivationQuantizer,
    QuantizedConv2d,
    QuantizedLinear,
    QuantizedAdd,
    QuantizedConcat,
    QuantizedLeakyReLU,
    QuantizedInput,
)

__all__ = [
    "QuantConfig",
    "LayerPrecision",
    "INT8_PRECISION",
    "INT4_PRECISION",
    "TQTQuantizer",
    "tqt_quantize",
    "tqt_quantize_unfused",
    "compute_scale",
    "FakeQuantizer",
    "fake_quantize",
    "nudge_zero_point",
    "calibrate",
    "max_calibration",
    "std_calibration",
    "percentile_calibration",
    "kl_j_calibration",
    "kl_j_distance",
    "CALIBRATION_METHODS",
    "TensorHistogram",
    "quantize_to_int",
    "dequantize",
    "code_dtype",
    "requantize_codes",
    "shift_requantize",
    "fixed_point_multiplier",
    "multiplier_requantize",
    "affine_matmul_with_zero_points",
    "AffineCost",
    "count_affine_cost",
    "FreezingPolicy",
    "ThresholdFreezer",
    "QuantScheme",
    "ActivationQuantizer",
    "QuantizedConv2d",
    "QuantizedLinear",
    "QuantizedAdd",
    "QuantizedConcat",
    "QuantizedLeakyReLU",
    "QuantizedInput",
]
