"""Unit tests for the fixed-point (integer) inference kernels."""

import numpy as np
import pytest

from repro.autograd import Tensor, conv2d
from repro.engine.kernels import (
    ConvGeometry,
    conv_accumulate,
    depthwise_accumulate,
    matmul_accumulate,
)
from repro.quant import (
    QuantConfig,
    affine_matmul_with_zero_points,
    count_affine_cost,
    dequantize,
    fixed_point_multiplier,
    multiplier_requantize,
    quantize_to_int,
    shift_requantize,
)


class TestQuantizeDequantize:
    def test_roundtrip_error_bounded(self, rng):
        config = QuantConfig(bits=8)
        scale = 1 / 128
        values = rng.uniform(-0.9, 0.9, 200)
        codes = quantize_to_int(values, scale, config)
        recovered = dequantize(codes, scale)
        assert np.max(np.abs(recovered - values)) <= scale / 2 + 1e-12

    def test_codes_clipped(self):
        config = QuantConfig(bits=8)
        codes = quantize_to_int(np.array([100.0, -100.0]), 0.01, config)
        np.testing.assert_array_equal(codes, [127, -128])

    def test_integer_dtype(self):
        config = QuantConfig(bits=4)
        assert quantize_to_int(np.zeros(3), 0.1, config).dtype == np.int64


class TestRequantization:
    def test_shift_requantize_is_division_by_power_of_two(self):
        config = QuantConfig(bits=8)
        acc = np.array([1024, -512, 100])
        np.testing.assert_array_equal(shift_requantize(acc, 3, config), [127, -64, 12])

    def test_shift_zero_and_negative(self):
        config = QuantConfig(bits=16)
        acc = np.array([5, -3])
        np.testing.assert_array_equal(shift_requantize(acc, 0, config), [5, -3])
        np.testing.assert_array_equal(shift_requantize(acc, -2, config), [20, -12])

    def test_round_half_to_even_in_shift(self):
        config = QuantConfig(bits=8)
        # 3 / 2 = 1.5 -> 2 ; 1 / 2 = 0.5 -> 0 (banker's rounding)
        np.testing.assert_array_equal(shift_requantize(np.array([3, 1]), 1, config), [2, 0])

    def test_fixed_point_multiplier_decomposition(self):
        for real in (0.37, 0.0021, 0.93, 0.5):
            m0, shift = fixed_point_multiplier(real)
            assert m0 / (1 << 31) == pytest.approx(real * 2 ** (shift - 31), rel=1e-6)
            reconstructed = m0 * 2.0 ** (-shift)
            assert reconstructed == pytest.approx(real, rel=1e-6)

    def test_fixed_point_multiplier_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fixed_point_multiplier(0.0)

    def test_multiplier_requantize_matches_real_scaling(self, rng):
        config = QuantConfig(bits=8)
        acc = rng.integers(-10000, 10000, 100)
        real_multiplier = 0.00731
        out = multiplier_requantize(acc, real_multiplier, config)
        expected = np.clip(np.rint(acc * real_multiplier), -128, 127)
        np.testing.assert_allclose(out, expected, atol=1)


def _int_conv(x: np.ndarray, w: np.ndarray, padding: int, groups: int = 1) -> np.ndarray:
    """The reference plan's int64 convolution kernels on integer codes."""
    n, c, h, width = x.shape
    o, cg, kh, kw = w.shape
    geometry = ConvGeometry.from_module(n, c, h, width, o, (kh, kw), 1, padding, groups)
    image = np.empty(geometry.output_shape)
    if geometry.is_depthwise:
        return depthwise_accumulate(geometry, x.astype(float), w.reshape(c, kh, kw),
                                    image, path=None, mode="int")
    # (G, K, O) with K ordered (channel-in-group, kh, kw), as the plan stages it.
    weight_t = w.reshape(groups, o // groups, cg * kh * kw).transpose(0, 2, 1)
    acc = np.empty((groups, n * geometry.out_height * geometry.out_width, o // groups))
    return conv_accumulate(geometry, x.astype(float), weight_t.astype(float), acc,
                           image, mode="int")


class TestIntegerKernels:
    """The int64 accumulation kernels of the engine's reference plan — the
    integer oracle — against the float convolution on the same codes."""

    def test_integer_matmul(self, rng):
        a = rng.integers(-128, 128, (4, 6))
        b = rng.integers(-128, 128, (6, 3))
        acc = np.empty((4, 3))
        np.testing.assert_array_equal(
            matmul_accumulate(a.astype(float), b.astype(float), acc, mode="int"), a @ b)

    def test_integer_conv_matches_float_conv_on_codes(self, rng):
        x = rng.integers(-128, 128, (2, 3, 6, 6))
        w = rng.integers(-8, 8, (4, 3, 3, 3))
        out = _int_conv(x, w, padding=1)
        expected = conv2d(Tensor(x.astype(float)), Tensor(w.astype(float)),
                          stride=1, padding=1).data
        np.testing.assert_array_equal(out, expected)

    def test_integer_depthwise_conv(self, rng):
        x = rng.integers(-128, 128, (1, 4, 5, 5))
        w = rng.integers(-8, 8, (4, 1, 3, 3))
        out = _int_conv(x, w, padding=1, groups=4)
        expected = conv2d(Tensor(x.astype(float)), Tensor(w.astype(float)),
                          padding=1, groups=4).data
        np.testing.assert_array_equal(out, expected)


class TestAffineCost:
    def test_zero_point_expansion_matches_direct_product(self, rng):
        """Eq. 13: the expanded form with explicit correction terms equals the
        direct product of the de-quantized integer values."""
        q1 = rng.integers(0, 255, (3, 5))
        q2 = rng.integers(0, 255, (5, 4))
        z1, z2 = 7, 13
        expanded = affine_matmul_with_zero_points(q1, q2, z1, z2)
        direct = (q1 - z1) @ (q2 - z2)
        np.testing.assert_array_equal(expanded, direct)

    def test_zero_zero_points_reduce_to_plain_product(self, rng):
        q1 = rng.integers(-128, 127, (3, 5))
        q2 = rng.integers(-128, 127, (5, 4))
        np.testing.assert_array_equal(affine_matmul_with_zero_points(q1, q2, 0, 0), q1 @ q2)

    def test_cost_counts(self):
        symmetric_pow2 = count_affine_cost(16, 64, 16, symmetric=True, power_of_2=True)
        affine_real = count_affine_cost(16, 64, 16, symmetric=False, power_of_2=False)
        assert symmetric_pow2.multiply_accumulates == affine_real.multiply_accumulates
        assert symmetric_pow2.zero_point_corrections == 0
        assert symmetric_pow2.rescale_multiplies == 0
        assert affine_real.zero_point_corrections > 0
        assert affine_real.rescale_multiplies == 16 * 16
        assert affine_real.total_extra_ops > symmetric_pow2.total_extra_ops
