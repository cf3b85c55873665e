"""Batched serving-style runner for the integer inference engine.

The engine is bound to a fixed batch shape (so its buffers can be
preallocated); the runner accepts an arbitrary stream of single-image
requests, coalesces them into full batches (padding the final partial batch
with zero images), executes each batch through the compiled plan, and
reports serving statistics: throughput, mean latency and latency
percentiles.  Request latency is measured from the request's arrival time to
the completion of the batch that carried it, so queueing delay induced by
batching is part of the number — the trade-off a serving stack actually
makes.

**Megabatch coalescing** (:func:`pack_partial_fills` /
:meth:`BatchedRunner.run_partial_groups`): several pending partial fills
are packed into one ``run_partial`` call and the output codes sliced back
out per group.  Each call runs on the smallest power-of-two bucket tape
that holds its fill (see :meth:`CompiledEngine.run_partial`), so packing
saves per-call dispatch, not padded rows.  Every plan op is per-sample
independent, so packing never changes a single code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .plan import CompiledEngine, EngineOutput

__all__ = ["RequestResult", "RunnerStats", "BatchedRunner", "pack_partial_fills",
           "run_partial_groups"]


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


@dataclass(frozen=True)
class RequestResult:
    """Outcome of one request: its output codes and observed latency."""

    request_id: int
    codes: np.ndarray
    latency_s: float
    batch_index: int


@dataclass
class RunnerStats:
    """Aggregate serving statistics for one runner invocation."""

    requests: int = 0
    batches: int = 0
    batch_size: int = 0
    padded_requests: int = 0
    total_time_s: float = 0.0
    throughput_rps: float = 0.0
    latency_mean_ms: float = 0.0
    latency_p50_ms: float = 0.0
    latency_p90_ms: float = 0.0
    latency_p95_ms: float = 0.0
    latency_p99_ms: float = 0.0
    latency_max_ms: float = 0.0
    #: megabatch accounting (run_partial_groups): how many partial-fill
    #: groups were served and how many engine passes they actually cost
    megabatch_groups: int = 0
    megabatch_executions: int = 0
    _latencies_ms: list[float] = field(default_factory=list, repr=False)

    def finalize(self) -> None:
        if not self.requests or not self._latencies_ms:
            # Zero-request run: keep the zeroed defaults rather than feeding
            # an empty array to np.percentile.
            return
        self.throughput_rps = self.requests / self.total_time_s if self.total_time_s else 0.0
        latencies = np.asarray(self._latencies_ms)
        self.latency_mean_ms = float(latencies.mean())
        self.latency_p50_ms = float(np.percentile(latencies, 50))
        self.latency_p90_ms = float(np.percentile(latencies, 90))
        self.latency_p95_ms = float(np.percentile(latencies, 95))
        self.latency_p99_ms = float(np.percentile(latencies, 99))
        self.latency_max_ms = float(latencies.max())

    def to_dict(self) -> dict:
        """JSON-serializable view (used by ``BENCH_engine.json``)."""
        return {
            "requests": self.requests,
            "batches": self.batches,
            "batch_size": self.batch_size,
            "padded_requests": self.padded_requests,
            "total_time_s": self.total_time_s,
            "throughput_rps": self.throughput_rps,
            "latency_mean_ms": self.latency_mean_ms,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p90_ms": self.latency_p90_ms,
            "latency_p95_ms": self.latency_p95_ms,
            "latency_p99_ms": self.latency_p99_ms,
            "latency_max_ms": self.latency_max_ms,
            "megabatch_groups": self.megabatch_groups,
            "megabatch_executions": self.megabatch_executions,
        }


class BatchedRunner:
    """Coalesce single-image requests into fixed-size engine batches."""

    def __init__(self, engine: CompiledEngine) -> None:
        if not isinstance(engine, CompiledEngine):
            # Accept a Deployment (or any bundle carrying a bound engine).
            inner = getattr(engine, "engine", None)
            if isinstance(inner, CompiledEngine):
                engine = inner
        self.engine = engine
        self.batch_size = engine.batch_size
        self._staging = np.zeros(engine.input_shape, dtype=engine.input_dtype)

    def run(self, images: np.ndarray, arrival_times_s: np.ndarray | None = None
            ) -> tuple[list[RequestResult], RunnerStats]:
        """Serve a request stream.

        Parameters
        ----------
        images: array of shape ``(R, C, H, W)`` — one request per row, in
            arrival order.
        arrival_times_s: optional non-decreasing per-request arrival offsets
            (seconds, relative to the start of serving).  Batch execution is
            placed on a virtual clock — a batch starts once its last request
            has arrived and the previous batch has finished, and takes its
            *measured* compute time — so latency percentiles reflect the
            queueing cost of the arrival pattern.  Defaults to a burst: all
            requests arrive at t=0.
        """
        images = np.asarray(images, dtype=self.engine.input_dtype)
        if images.ndim != 4 or images.shape[1:] != self.engine.input_shape[1:]:
            expected = ", ".join(str(s) for s in self.engine.input_shape[1:])
            raise ValueError(f"expected requests shaped (R, {expected}), got {images.shape}")
        if not np.all(np.isfinite(images)):
            raise ValueError("request images must be finite; got NaN or Inf values "
                             "(quantization codes for non-finite inputs are undefined)")
        total = images.shape[0]
        if arrival_times_s is None:
            arrival_times_s = np.zeros(total)
        arrival_times_s = np.asarray(arrival_times_s, dtype=np.float64)
        if arrival_times_s.shape != (total,):
            raise ValueError("arrival_times_s must have one entry per request")
        if np.any(np.diff(arrival_times_s) < 0):
            raise ValueError("arrival_times_s must be non-decreasing (arrival order)")

        results: list[RequestResult] = []
        stats = RunnerStats(batch_size=self.batch_size)
        clock = 0.0  # virtual serving clock; advances by measured compute time
        for batch_index, begin in enumerate(range(0, total, self.batch_size)):
            end = min(begin + self.batch_size, total)
            fill = end - begin
            self._staging[:fill] = images[begin:end]
            if fill < self.batch_size:
                self._staging[fill:] = 0.0
                stats.padded_requests += self.batch_size - fill
            batch_ready = float(arrival_times_s[end - 1])
            started = max(clock, batch_ready)
            compute_start = time.perf_counter()
            output = self.engine.run(self._staging)
            compute_time = time.perf_counter() - compute_start
            clock = started + compute_time
            for offset in range(fill):
                latency = clock - arrival_times_s[begin + offset]
                results.append(RequestResult(
                    request_id=begin + offset,
                    codes=output.codes[offset].copy(),
                    latency_s=float(latency),
                    batch_index=batch_index,
                ))
                stats._latencies_ms.append(float(latency) * 1e3)
            stats.batches += 1
        stats.requests = total
        stats.total_time_s = clock  # serving makespan on the virtual clock
        stats.finalize()
        return results, stats

    def run_partial_groups(self, groups: list[np.ndarray]
                           ) -> tuple[list, RunnerStats]:
        """Serve several partial fills with megabatch coalescing.

        Consecutive groups whose fills fit one engine batch execute in a
        single tape pass; output codes per group are bit-identical to
        serving each group alone.  Returns per-group
        :class:`~repro.engine.plan.EngineOutput` objects plus stats
        recording how many executions the groups actually cost.
        """
        stats = RunnerStats(batch_size=self.batch_size)
        start = time.perf_counter()
        outputs, executions = run_partial_groups(self.engine, groups)
        stats.total_time_s = time.perf_counter() - start
        stats.requests = sum(np.asarray(g).shape[0] for g in groups)
        stats.batches = executions
        stats.megabatch_groups = len(groups)
        stats.megabatch_executions = executions
        stats.throughput_rps = (stats.requests / stats.total_time_s
                                if stats.total_time_s else 0.0)
        return outputs, stats
