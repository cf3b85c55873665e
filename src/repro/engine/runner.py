"""Megabatch coalescing for the integer inference engine.

:func:`pack_partial_fills` / :func:`run_partial_groups`: several pending
partial fills are packed into one ``run_partial`` call and the output codes
sliced back out per group.  Each call runs on the smallest power-of-two
bucket tape that holds its fill (see :meth:`CompiledEngine.run_partial`), so
packing saves per-call dispatch, not padded rows.  Every plan op is
per-sample independent, so packing never changes a single code.

Request streams are served by :class:`~repro.serving.FleetServer`
(``dep.serve(ServeConfig(max_wait_s=None)).serve(requests)`` is full-batch
coalescing on the virtual clock); :class:`BatchedRunner` only wraps
:func:`run_partial_groups` around one engine.
"""

from __future__ import annotations

import numpy as np

from .plan import CompiledEngine, EngineOutput

__all__ = ["BatchedRunner", "pack_partial_fills", "run_partial_groups"]


def pack_partial_fills(fills: list[int], batch_size: int) -> list[list[int]]:
    """Greedily pack group fills into engine executions of ``<= batch_size``.

    Order-preserving first-fit: groups are packed in sequence so each
    execution carries consecutive groups whose total fill fits one batch.
    """
    packs: list[list[int]] = []
    current: list[int] = []
    used = 0
    for index, fill in enumerate(fills):
        if not 1 <= fill <= batch_size:
            raise ValueError(f"group {index}: fill must be in [1, {batch_size}], "
                             f"got {fill}")
        if current and used + fill > batch_size:
            packs.append(current)
            current, used = [], 0
        current.append(index)
        used += fill
    if current:
        packs.append(current)
    return packs


def run_partial_groups(engine, groups: list[np.ndarray]
                       ) -> tuple[list[EngineOutput], int]:
    """Execute several partial fills in as few engine passes as possible.

    Returns one :class:`EngineOutput` per input group (sliced from the
    packed executions) plus the number of engine passes actually run.
    Outputs are bit-identical to running each group through
    ``engine.run_partial`` on its own.
    """
    fills = [np.asarray(g).shape[0] for g in groups]
    packs = pack_partial_fills(fills, engine.batch_size)
    outputs: list[EngineOutput | None] = [None] * len(groups)
    for pack in packs:
        if len(pack) == 1:
            index = pack[0]
            outputs[index] = engine.run_partial(np.asarray(
                groups[index], dtype=engine.input_dtype))
            continue
        stacked = np.concatenate([np.asarray(groups[i], dtype=engine.input_dtype)
                                  for i in pack], axis=0)
        merged = engine.run_partial(stacked)
        offset = 0
        for i in pack:
            outputs[i] = EngineOutput(codes=merged.codes[offset:offset + fills[i]],
                                      fraction=merged.fraction,
                                      divisor=merged.divisor)
            offset += fills[i]
    return outputs, len(packs)


class BatchedRunner:
    """Megabatch coalescing over one bound engine."""

    def __init__(self, engine: CompiledEngine) -> None:
        self.engine = engine

    def run_partial_groups(self, groups: list[np.ndarray]
                           ) -> tuple[list[EngineOutput], int]:
        """:func:`run_partial_groups` on this runner's engine: per-group
        outputs plus the number of engine passes they cost."""
        return run_partial_groups(self.engine, groups)
