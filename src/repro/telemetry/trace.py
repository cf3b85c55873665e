"""Request-scoped tracing: spans, samplers and the tracer event sink.

One serve run produces one :class:`Trace` — a bounded list of
:class:`Span` records on a single clock (the virtual discrete-event clock
or wall-clock offsets from serve start), plus named counters.  The design
constraints, in order:

* **Zero cost when off.**  Telemetry defaults to disabled
  (``TelemetryConfig(sample_rate=0.0)``); the server then routes every
  span call through :data:`NULL_TRACER`, whose methods are no-ops and
  whose ``enabled`` flag lets hot paths skip argument construction
  entirely (``if tracer.enabled: ...``).  The overhead budget is gated by
  ``benchmarks/test_telemetry_overhead.py``.
* **Deterministic head-based sampling.**  Whether a request is traced is
  a pure function of ``(request_id, seed)`` — a splitmix64-style hash
  mapped to [0, 1) and compared against ``sample_rate`` — so the parent
  process, its dispatch threads and remote worker processes all agree on
  the sampled subset without any coordination or shared state.
* **Cross-process spans.**  Worker processes buffer spans locally as
  plain tuples (:meth:`Span.to_tuple`) and ship them back on the result
  queue; the parent re-times them into its own clock via
  :meth:`Tracer.adopt`, clamping each span into the observed
  send/receive window so nesting and monotonicity survive clock offset
  between processes.

The Chrome ``trace_event`` / Prometheus renderings live in
:mod:`repro.telemetry.export`; the interval time-series reduction in
:mod:`repro.telemetry.snapshot`.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

__all__ = ["TelemetryConfig", "Span", "Tracer", "NullTracer", "NULL_TRACER",
           "Trace", "sample_hash", "tape_span_args", "attach_tape_sink"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def sample_hash(request_id: int, seed: int = 0) -> float:
    """Deterministic hash of a request id into [0, 1) (splitmix64 finalizer).

    Pure function of ``(request_id, seed)``: every process in the fleet
    computes the same value, so head-based sampling needs no coordination.
    """
    x = (int(request_id) + _GOLDEN * (int(seed) + 1)) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x / 2.0 ** 64


@dataclass(frozen=True)
class TelemetryConfig:
    """Tracing knobs for one :class:`~repro.serving.FleetServer`.

    ``sample_rate=0.0`` (the default) disables tracing entirely — the
    server uses :data:`NULL_TRACER` and pays only one attribute check per
    instrumentation point.  ``sample_rate=1.0`` traces every request.
    ``tape_spans`` additionally emits one span per tape instruction on
    batches that contain a sampled request (kernel name, chosen variant,
    output shape, arena slot) — the highest-resolution, highest-overhead
    level.  ``snapshot_interval_s`` sets the bucket width of the metrics
    time-series (``None`` -> auto, see
    :func:`repro.telemetry.snapshot.build_timeseries`).  ``max_spans``
    bounds trace memory; excess spans are counted as dropped, never
    stored.  ``seed`` perturbs the sampling hash so disjoint sampled
    subsets can be drawn from the same request ids.
    """

    sample_rate: float = 0.0
    tape_spans: bool = False
    snapshot_interval_s: float | None = None
    max_spans: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {self.sample_rate}")
        if self.max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {self.max_spans}")
        if self.snapshot_interval_s is not None and self.snapshot_interval_s <= 0:
            raise ValueError(f"snapshot_interval_s must be > 0, "
                             f"got {self.snapshot_interval_s}")

    @property
    def enabled(self) -> bool:
        return self.sample_rate > 0.0

    def to_dict(self) -> dict:
        return asdict(self)


class Span:
    """One timed interval on the trace clock (seconds from serve start)."""

    __slots__ = ("name", "cat", "start_s", "end_s", "lane", "trace_id", "args")

    def __init__(self, name: str, cat: str, start_s: float, end_s: float,
                 lane: str = "server", trace_id: int | None = None,
                 args: dict | None = None) -> None:
        self.name = name
        self.cat = cat
        self.start_s = start_s
        self.end_s = end_s
        self.lane = lane
        self.trace_id = trace_id
        self.args = args

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def to_tuple(self) -> tuple:
        """Queue-friendly wire form (see :meth:`Tracer.adopt`)."""
        return (self.name, self.cat, self.start_s, self.end_s, self.lane,
                self.trace_id, self.args)

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, cat={self.cat!r}, "
                f"[{self.start_s:.6f}, {self.end_s:.6f}], lane={self.lane!r})")


@dataclass
class Trace:
    """The immutable result of one traced serve run."""

    clock: str                       # "virtual" | "wall"
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)
    dropped: int = 0

    def by_category(self, cat: str) -> list[Span]:
        return [span for span in self.spans if span.cat == cat]

    def by_trace_id(self, trace_id: int) -> list[Span]:
        return [span for span in self.spans if span.trace_id == trace_id]

    def save(self, path) -> Path:
        """Write the Chrome trace JSON to ``path``; returns the path."""
        from .export import write_chrome_trace
        return write_chrome_trace(path, self)


class Tracer:
    """Thread-safe span/counter sink for one serve run.

    The server creates one tracer per :meth:`FleetServer.serve` call when
    telemetry is enabled and funnels every span through it; worker
    processes never see the tracer — they buffer raw span tuples and the
    parent :meth:`adopt`\\ s them.  ``max_spans`` bounds memory: the
    overflow is counted (``dropped``), not stored.
    """

    enabled = True

    def __init__(self, config: TelemetryConfig, clock: str = "virtual") -> None:
        if clock not in ("virtual", "wall"):
            raise ValueError(f"clock must be 'virtual' or 'wall', got {clock!r}")
        self.config = config
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        self.dropped = 0
        self._lock = threading.Lock()

    def sampled(self, request_id: int) -> bool:
        """Head-based sampling decision (deterministic across processes)."""
        rate = self.config.sample_rate
        if rate >= 1.0:
            return True
        if rate <= 0.0:
            return False
        return sample_hash(request_id, self.config.seed) < rate

    def record(self, name: str, cat: str, start_s: float, end_s: float, *,
               lane: str = "server", trace_id: int | None = None,
               args: dict | None = None) -> None:
        if end_s < start_s:          # clock-skew guard: spans never run backwards
            end_s = start_s
        with self._lock:
            if len(self.spans) >= self.config.max_spans:
                self.dropped += 1
                return
            self.spans.append(Span(name, cat, start_s, end_s, lane=lane,
                                   trace_id=trace_id, args=args))

    def adopt(self, raw_spans, clamp: tuple[float, float] | None = None) -> None:
        """Ingest spans shipped from a worker process (tuples from
        :meth:`Span.to_tuple`).

        ``clamp=(t_send, t_recv)`` confines each span to the parent-observed
        dispatch window: the worker aligned its stamps with a clock offset
        derived from the task message, but offset estimation error could
        otherwise push a child span outside its parent dispatch span and
        break nesting/monotonicity guarantees.
        """
        for name, cat, start_s, end_s, lane, trace_id, args in raw_spans:
            if clamp is not None:
                lo, hi = clamp
                start_s = min(max(start_s, lo), hi)
                end_s = min(max(end_s, lo), hi)
            self.record(name, cat, start_s, end_s, lane=lane,
                        trace_id=trace_id, args=args)

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def finish(self, metadata: dict | None = None) -> Trace:
        with self._lock:
            return Trace(clock=self.clock, spans=list(self.spans),
                         counters=dict(self.counters),
                         metadata=dict(metadata or {}), dropped=self.dropped)


class NullTracer:
    """The disabled tracer: every call is a no-op, ``enabled`` is False.

    Hot paths guard span construction with ``if tracer.enabled``, so the
    disabled cost is one attribute load per instrumentation point.
    """

    enabled = False
    clock = "off"

    def sampled(self, request_id: int) -> bool:
        return False

    def record(self, *args, **kwargs) -> None:
        pass

    def adopt(self, raw_spans, clamp=None) -> None:
        pass

    def count(self, name: str, n: int = 1) -> None:
        pass

    def finish(self, metadata: dict | None = None) -> None:
        return None


#: Shared no-op tracer (stateless, safe to reuse across serves and threads).
NULL_TRACER = NullTracer()


# ---------------------------------------------------------------------- #
# Tape-program instrumentation (engine hook)
# ---------------------------------------------------------------------- #
def tape_span_args(tape) -> dict[int, dict]:
    """Static per-instruction span metadata for one compiled tape.

    Keyed by ``id(instr)`` over the tape's *current* flat instruction list
    (rebuild the map after ``rebuild``).  Each entry
    carries the lowered op, the instruction kind (kernel), the chosen
    autotune variant for tunable groups, and the producing step's output
    shape and arena buffer slot when the engine exposes them.
    """
    engine = getattr(tape, "_engine", None)
    step_meta: dict[str, dict] = {}
    plan = getattr(engine, "plan", None)
    bounds = getattr(engine, "steps", None)
    if plan is not None and bounds is not None:
        for step, bound in zip(plan.steps, bounds):
            meta: dict = {}
            shape = getattr(bound, "out_shape", None)
            if shape is not None:
                meta["shape"] = list(shape)
            slot = getattr(bound, "output_slot", None)
            if slot is not None:
                meta["slot"] = int(slot)
            step_meta[step.name] = meta
    info: dict[int, dict] = {}
    for item in tape.items:
        if hasattr(item, "instructions"):      # a tunable macro-kernel group
            flat = item.instructions()
            variant = item.chosen
        else:
            flat, variant = [item], None
        for instr in flat:
            args = {"op": str(instr.op), "kind": instr.kind}
            if variant is not None:
                args["variant"] = variant
            args.update(step_meta.get(instr.name, {}))
            info[id(instr)] = args
    return info


def attach_tape_sink(target, emit) -> Callable[[], None]:
    """Install a per-instruction trace sink on a ``TapeProgram`` — or on
    every tape a tape-mode engine runs (its own and its bucket engines').

    ``emit(name, args, start_s, end_s)`` is called once per executed
    instruction with **raw** ``time.perf_counter()`` stamps — the caller
    converts them to its trace clock.  Returns a detach callable; the
    sink must be detached before another (untraced) execution is timed,
    as the traced loop adds two clock reads per instruction.
    """
    if getattr(target, "tape", None) is not None:        # an engine
        tapes = [engine.tape for engine in (target, *target._buckets)]
    else:
        tapes = [target]
    for one in tapes:
        args_by_id = tape_span_args(one)

        def sink(instr, start_s: float, end_s: float, args_by_id=args_by_id) -> None:
            emit(instr.name, args_by_id.get(id(instr), {}), start_s, end_s)

        one.trace_sink = sink

    def detach() -> None:
        for one in tapes:
            one.trace_sink = None

    return detach
