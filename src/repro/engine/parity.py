"""Bit-exactness checks: integer engine vs. float fake-quant simulation.

The paper validated its quantized inference graphs by checking that the CPU
(fake-quant) execution is bit-accurate to the FPGA fixed-point
implementation (Section 4.2).  This module performs the same check between
the repo's two execution paths: the per-op autograd simulation of a
quantized :class:`~repro.graph.ir.GraphIR` and the compiled integer plan of
:mod:`repro.engine.plan`.  Parity means *every* output code matches exactly
— not approximately — on every input batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..autograd import Tensor, no_grad
from ..graph.ir import GraphIR
from .plan import CompiledEngine

__all__ = ["ParityReport", "check_engine_parity", "check_plan_parity",
           "simulate_reference"]


@dataclass(frozen=True)
class ParityReport:
    """Result of comparing engine codes against the fake-quant simulation."""

    batches: int
    total_codes: int
    mismatched_codes: int
    max_code_difference: int

    @property
    def bit_exact(self) -> bool:
        return self.mismatched_codes == 0

    def __str__(self) -> str:
        status = "bit-exact" if self.bit_exact else "MISMATCH"
        return (f"{status}: {self.mismatched_codes}/{self.total_codes} codes differ "
                f"over {self.batches} batches (max |Δ| = {self.max_code_difference})")


def simulate_reference(graph: GraphIR, batch: np.ndarray) -> np.ndarray:
    """One fake-quant forward pass (the float simulation the engine replaces)."""
    was_training = graph.training
    graph.eval()
    with no_grad():
        out = graph(Tensor(batch)).data
    if was_training:
        graph.train()
    return out


def _code_parity(code_pairs, labels: tuple[str, str]) -> ParityReport:
    """Reduce (reference, candidate) code pairs into a :class:`ParityReport`."""
    total = mismatched = batches = 0
    max_diff = 0
    for reference_codes, candidate_codes in code_pairs:
        batches += 1
        if reference_codes.shape != candidate_codes.shape:
            raise ValueError(f"shape mismatch: {labels[0]} {reference_codes.shape} vs "
                             f"{labels[1]} {candidate_codes.shape}")
        diff = np.abs(reference_codes - candidate_codes)
        total += diff.size
        mismatched += int(np.count_nonzero(diff))
        if diff.size:
            max_diff = max(max_diff, int(diff.max()))
    return ParityReport(batches=batches, total_codes=total,
                        mismatched_codes=mismatched, max_code_difference=max_diff)


def check_engine_parity(graph: GraphIR, engine: CompiledEngine,
                        batches: list[np.ndarray]) -> ParityReport:
    """Assert-free parity comparison over a list of input batches.

    The fake simulation emits real values ``codes * s``; they are converted
    to codes with the engine's output scale so the comparison happens on the
    integer grid the hardware would see.
    """
    scale = (2.0 ** engine.output_meta.fraction) * engine.output_meta.divisor
    return _code_parity(
        ((np.rint(simulate_reference(graph, batch) * scale).astype(np.int64),
          engine.run(batch).codes.astype(np.int64)) for batch in batches),
        labels=("simulation", "engine"))


def check_plan_parity(baseline, candidate, batches: list[np.ndarray]) -> ParityReport:
    """Compare two engine-like executors code-for-code on the same batches.

    This is the optimizer's acceptance gate: an optimized plan's tape must
    reproduce the oracle engine's output codes *exactly* on every input.
    Both arguments just need the ``run(batch) -> EngineOutput`` interface;
    their output scales must agree.
    """
    if (baseline.output_meta.fraction != candidate.output_meta.fraction
            or baseline.output_meta.divisor != candidate.output_meta.divisor):
        raise ValueError(
            f"output scales disagree: baseline f={baseline.output_meta.fraction} "
            f"d={baseline.output_meta.divisor} vs candidate "
            f"f={candidate.output_meta.fraction} d={candidate.output_meta.divisor}")
    return _code_parity(
        ((baseline.run(batch).codes.astype(np.int64),
          candidate.run(batch).codes.astype(np.int64)) for batch in batches),
        labels=("baseline", "candidate"))
