"""Fixed-point arithmetic helpers: quantize, requantize, Appendix A costs.

The paper validates that its quantized *inference graphs* run on CPU are
bit-accurate to the FPGA fixed-point implementation (Section 4.2).  The one
integer oracle that check runs against is the engine's reference plan
(:mod:`repro.engine`, ``optimize=False, accumulate="int", mode="steps"``);
this module holds the scalar arithmetic it and the tests share:

* integer codes from real values and back;
* re-scaling of the accumulator either by a **bit shift** (power-of-2 scale
  factors, Eq. 16) or by a **normalized fixed-point multiplier** (real scale
  factors, Eq. 15), both with round-half-to-even;
* the affine (zero-point) product expansion of Appendix A.1, used to count
  the extra work real-valued/asymmetric quantization incurs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..autograd.functional import round_half_to_even
from .config import QuantConfig

__all__ = [
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
]


def quantize_to_int(values: np.ndarray, scale: float | np.ndarray,
                    config: QuantConfig) -> np.ndarray:
    """Map real values to integer codes ``q = clip(round(x / s))``."""
    codes = round_half_to_even(np.asarray(values, dtype=np.float64) / scale)
    return np.clip(codes, config.qmin, config.qmax).astype(np.int64)


def dequantize(codes: np.ndarray, scale: float | np.ndarray) -> np.ndarray:
    """Map integer codes back to the real domain ``r = s * q``."""
    return np.asarray(codes, dtype=np.float64) * scale


def code_dtype(bits: int) -> np.dtype:
    """Smallest signed integer dtype that can hold codes of ``bits`` bits."""
    if bits <= 8:
        return np.dtype(np.int8)
    if bits <= 16:
        return np.dtype(np.int16)
    return np.dtype(np.int32)


def requantize_codes(accumulator: np.ndarray, shift: int, qmin: int, qmax: int,
                     divisor: int = 1, out: np.ndarray | None = None) -> np.ndarray:
    """Vectorized requantization ``clip(rhe(acc * 2^-shift / divisor), qmin, qmax)``.

    The shared kernel behind :func:`shift_requantize` and the integer
    inference engine (:mod:`repro.engine`).  The arithmetic is carried in
    float64 lanes: every input is an integer and ``2^-shift / divisor`` is an
    exact power of two whenever ``divisor`` is one (the usual case) or a
    power of two (global average pooling over power-of-two windows), so the
    rounding is bit-identical to an integer shift with round-half-to-even.
    ``out`` may be a preallocated float64 buffer of the accumulator's shape.
    """
    factor = (2.0 ** float(-shift)) / float(divisor)
    scaled = np.multiply(accumulator, factor, out=out)
    np.rint(scaled, out=scaled)
    return np.clip(scaled, qmin, qmax, out=scaled)


def shift_requantize(accumulator: np.ndarray, shift: int,
                     config: QuantConfig) -> np.ndarray:
    """Re-scale an integer accumulator by ``2^-shift`` with round-half-to-even.

    This is the power-of-2 path (Eq. 16): the whole scale adjustment is a
    single arithmetic shift.
    Negative ``shift`` means a left shift (scale up).
    """
    accumulator = np.asarray(accumulator, dtype=np.float64)
    return requantize_codes(accumulator, shift, config.qmin, config.qmax).astype(np.int64)


def fixed_point_multiplier(real_multiplier: float, bits: int = 31) -> tuple[int, int]:
    """Decompose a real multiplier in (0, 1) as ``m0 * 2^-n`` (Eq. 15).

    Returns ``(m0, n)`` where ``m0`` is an integer multiplier with ``bits``
    bits of precision normalized into [0.5, 1), the gemmlowp construction.
    """
    if real_multiplier <= 0:
        raise ValueError("real multiplier must be positive")
    n = 0
    m = float(real_multiplier)
    while m < 0.5:
        m *= 2.0
        n += 1
    while m >= 1.0:
        m /= 2.0
        n -= 1
    m0 = int(round(m * (1 << bits)))
    return m0, n + bits


def multiplier_requantize(accumulator: np.ndarray, real_multiplier: float,
                          config: QuantConfig, bits: int = 31) -> np.ndarray:
    """Re-scale an integer accumulator by an arbitrary real multiplier using a
    normalized fixed-point multiply followed by a rounding right shift."""
    m0, shift = fixed_point_multiplier(real_multiplier, bits=bits)
    accumulator = np.asarray(accumulator, dtype=np.int64)
    product = accumulator.astype(np.float64) * m0
    scaled = product / (2.0 ** shift)
    return np.clip(round_half_to_even(scaled), config.qmin, config.qmax).astype(np.int64)


# ---------------------------------------------------------------------- #
# Appendix A: cost of the affine quantizer
# ---------------------------------------------------------------------- #
@dataclass
class AffineCost:
    """Operation counts for a quantized matrix product (Appendix A)."""

    multiply_accumulates: int
    zero_point_corrections: int
    rescale_multiplies: int
    rescale_shifts: int

    @property
    def total_extra_ops(self) -> int:
        return self.zero_point_corrections + self.rescale_multiplies


def affine_matmul_with_zero_points(q1: np.ndarray, q2: np.ndarray,
                                   z1: int, z2: int) -> np.ndarray:
    """Evaluate the bracketed expression of Eq. 13: ``q1q2 - q1 z2 - q2 z1 + z1 z2``.

    The separate correction terms are computed explicitly so tests can verify
    that eliminating zero-points (``z = 0``) removes the cross terms and
    recovers the plain integer product of Eq. 14.
    """
    q1 = np.asarray(q1, dtype=np.int64)
    q2 = np.asarray(q2, dtype=np.int64)
    k = q1.shape[-1]
    product = q1 @ q2
    row_sums = q1.sum(axis=-1, keepdims=True)          # multiplies q1 by z2
    col_sums = q2.sum(axis=0, keepdims=True)           # multiplies q2 by z1
    return product - z2 * row_sums - z1 * col_sums + z1 * z2 * k


def count_affine_cost(m: int, k: int, n: int, symmetric: bool, power_of_2: bool) -> AffineCost:
    """Count the arithmetic a quantized (m,k)x(k,n) product needs.

    The multiply-accumulate count is the same in every scheme; asymmetric
    quantization adds the zero-point correction terms of Eq. 13 and real
    scale factors add a fixed-point multiply per output (Eq. 15) instead of
    the single shift of Eq. 16.
    """
    macs = m * k * n
    corrections = 0 if symmetric else (m * n * 2 + m * n)  # two rank-1 corrections + constant
    rescale_multiplies = 0 if power_of_2 else m * n
    rescale_shifts = m * n
    return AffineCost(
        multiply_accumulates=macs,
        zero_point_corrections=corrections,
        rescale_multiplies=rescale_multiplies,
        rescale_shifts=rescale_shifts,
    )
