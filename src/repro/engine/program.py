"""The tape executor: flat instruction programs compiled from optimized plans.

The step interpreter (``CompiledEngine.run_steps``) walks a list of bound
step objects, each dispatching through ``env``-slot indirection into a
closure that issues several small NumPy calls.  At nano feature-map sizes
the per-call and per-dispatch overhead rivals the arithmetic itself.
:func:`compile_tape` lowers a bound optimized engine into a
:class:`TapeProgram` — a flat list of prebound zero-argument kernel calls
over a preallocated buffer arena:

* every instruction's input/output buffers are resolved **at compile time**
  (no per-run environment lookups); reshape/flatten steps become zero-cost
  buffer aliases and emit no instructions at all;
* each step's requantize/activation/copy epilogue is compiled by
  :class:`repro.engine.optimizer.ElementwiseChain` into a single composite
  instruction with provably-identity operations eliminated;
* the compute steps of an optimized plan carry several bit-exact
  macro-kernel variants — the window-view einsums, the channel-axis and
  linear GEMMs, and the :class:`~repro.engine.kernels.StackedShiftGeometry`
  GEMM, each in float64 lanes and, where proven exact, float32 lanes —
  arbitrated by the one autotuner (:meth:`TapeProgram.autotune`), whose
  choices are cached on the plan and ride along in plan artifacts, so
  loaded deployments re-profile nothing.

Each plan has exactly one executor.  The tape is the only executor of an
optimized plan; the step interpreter is the only executor of the reference
plan (``bind(..., mode="steps")``) — the oracle the parity suite checks
every optimized tape against on every registry model.
"""

from __future__ import annotations

import time
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..graph.ir import OpKind
from .counters import PIPELINE_COUNTERS
from .kernels import (
    StackedShiftGeometry,
    max_pool_codes,
    pack_stacked_depthwise_weights,
    pack_stacked_weights,
    pointwise_accumulate,
)
from .optimizer import (
    ElementwiseChain,
    _FusedConvStep,
    _FusedLinearStep,
    _maximum_into,
    _PointwiseConvStep,
    tail_chain,
)
from .plan import (
    PlanError,
    _ActivationOnlyStep,
    _AddStep,
    _ConcatStep,
    _GlobalAvgPoolStep,
    _LeakyReLUStep,
    _MaxPoolStep,
    _QuantizeInputStep,
    _relu6_bound,
    _ReshapeStep,
)

__all__ = ["Instr", "TapeProgram", "compile_tape"]

_INF = float("inf")

#: stacked-shift staging is KH*KW times the input tensor; skip the variant
#: when the stack would exceed this many elements (large feature maps are
#: GEMM-bound anyway, so the variant only matters at small sizes).
STACKGEMM_MAX_ELEMENTS = 4_000_000


class Instr:
    """One tape instruction: a prebound zero-argument kernel call."""

    __slots__ = ("name", "op", "kind", "run")

    def __init__(self, name: str, op: str, kind: str, run) -> None:
        self.name = name
        self.op = op
        self.kind = kind
        self.run = run

    def __repr__(self) -> str:
        return f"Instr({self.name!r}, {self.kind!r})"


def _ops_runner(calls: list[tuple]):
    """Collapse a compiled op chain into one zero-argument callable."""
    if len(calls) == 1:
        fn, args = calls[0]
        return partial(fn, *args)

    def run(calls=tuple(calls)):
        for fn, args in calls:
            fn(*args)

    return run


class _TunableGroup:
    """A tunable macro-kernel slot: variant name -> instruction builder.

    Builders are lazy so unchosen variants never allocate staging buffers;
    the autotuner materializes all of them once, times them interleaved,
    keeps the winner and drops the rest.
    """

    def __init__(self, name: str, op: str, builders: dict, default: str) -> None:
        self.name = name
        self.op = op
        self.builders = builders
        self.default = default
        self.chosen = default
        self._materialized: dict[str, list[Instr]] = {}

    @property
    def variants(self) -> tuple[str, ...]:
        return tuple(self.builders)

    def materialize(self, variant: str) -> list[Instr]:
        if variant not in self._materialized:
            self._materialized[variant] = self.builders[variant]()
        return self._materialized[variant]

    def choose(self, variant: str) -> None:
        if variant not in self.builders:
            raise ValueError(f"{self.name}: unknown tape variant {variant!r}; "
                             f"available: {list(self.builders)}")
        self.chosen = variant

    def instructions(self) -> list[Instr]:
        return self.materialize(self.chosen)

    def drop_unchosen(self) -> None:
        self._materialized = {self.chosen: self.materialize(self.chosen)}


class TapeProgram:
    """A compiled flat instruction program over a preallocated arena."""

    def __init__(self, engine, input_buffer: np.ndarray, output_array: np.ndarray,
                 items: list, report: dict) -> None:
        self._engine = engine
        self.input_buffer = input_buffer
        self.output_array = output_array
        self.items = items
        self.report = report
        self._calls: list = []
        self._flat: list[Instr] = []
        #: opt-in per-instruction instrumentation: when set to a callable
        #: ``sink(instr, start_s, end_s)`` (raw ``perf_counter`` stamps),
        #: :meth:`execute` times every instruction through it — see
        #: :func:`repro.telemetry.attach_tape_sink`.  ``None`` (default)
        #: keeps the untimed fast loop; the cost of the hook when unset is
        #: one attribute check per batch.
        self.trace_sink = None
        self.rebuild()

    # ------------------------------------------------------------------ #
    def rebuild(self) -> None:
        """Flatten the chosen instructions into the hot-path call list."""
        flat: list[Instr] = []
        for item in self.items:
            if isinstance(item, _TunableGroup):
                flat.extend(item.instructions())
            else:
                flat.append(item)
        self._flat = flat
        self._calls = [instr.run for instr in flat]
        self.report["instructions"] = len(self._calls)
        self.report["kernel_choices"] = self.choices()

    def execute(self) -> None:
        sink = self.trace_sink
        if sink is not None:
            for instr in self._flat:
                start = time.perf_counter()
                instr.run()
                sink(instr, start, time.perf_counter())
            return
        for fn in self._calls:
            fn()

    # ------------------------------------------------------------------ #
    @property
    def tunable_groups(self) -> list[_TunableGroup]:
        return [item for item in self.items if isinstance(item, _TunableGroup)]

    def choices(self) -> dict[str, str]:
        return {group.name: group.chosen for group in self.tunable_groups}

    def autotune(self, repeats: int = 5) -> dict[str, str]:
        """Micro-profile every tunable group's variants in place.

        One full pass populates the staging buffers; each group's variants
        are then timed interleaved (A B C, A B C, ...) with the per-variant
        minimum taken, so a transient host stall cannot doom one candidate.
        All variants are bit-exact, so re-running a group never corrupts
        downstream state.  Losing variants' staging buffers are dropped
        afterwards.
        """
        PIPELINE_COUNTERS.tape_autotune_runs += 1
        self.execute()
        for group in self.tunable_groups:
            if len(group.builders) < 2:
                group.drop_unchosen()
                continue
            instrs = {v: group.materialize(v) for v in group.variants}
            for seq in instrs.values():          # warm every variant's buffers
                for instr in seq:
                    instr.run()
            elapsed = {v: _INF for v in instrs}
            for _ in range(repeats):
                for variant, seq in instrs.items():
                    start = time.perf_counter()
                    for instr in seq:
                        instr.run()
                    elapsed[variant] = min(elapsed[variant],
                                           time.perf_counter() - start)
            group.choose(min(elapsed, key=elapsed.get))
            group.drop_unchosen()
        self.rebuild()
        return self.choices()

    def profile(self, repeats: int = 5) -> list[tuple[str, str, float]]:
        """Per-instruction mean seconds (step name, kind, seconds)."""
        self.execute()
        flat = self._flat
        totals = [0.0] * len(flat)
        for _ in range(repeats):
            for i, instr in enumerate(flat):
                start = time.perf_counter()
                instr.run()
                totals[i] += time.perf_counter() - start
        return [(instr.name, instr.kind, total / repeats)
                for instr, total in zip(flat, totals)]


# ---------------------------------------------------------------------- #
# Emission context
# ---------------------------------------------------------------------- #
class _TapeBuild:
    def __init__(self, fuse: bool, pool) -> None:
        self.fuse = fuse
        self.pool = pool
        self.arrays: dict[str, np.ndarray] = {}
        self.report = {
            "mode": "fused" if fuse else "unfused",
            "aliased_views": 0,
            "chains": 0,
            "chain_ops_recorded": 0,
            "chain_ops_emitted": 0,
            "eliminated": {"scale": 0, "round": 0, "clip": 0, "slid_clips": 0},
            "tunable_steps": 0,
        }

    def buffer(self, shape, dtype=np.float64, zero_key=None) -> np.ndarray:
        """A private buffer from the engine's arena (see ``_BufferPool``)."""
        return self.pool.acquire(shape, dtype, fresh=True, zero_key=zero_key)

    def chain_calls(self, chain: ElementwiseChain) -> list[tuple]:
        calls, stats = chain.compile()
        self.report["chains"] += 1
        self.report["chain_ops_recorded"] += stats["ops_recorded"]
        self.report["chain_ops_emitted"] += stats["ops_emitted"]
        for key in ("scale", "round", "clip"):
            self.report["eliminated"][key] += stats[key]
        self.report["eliminated"]["slid_clips"] += stats["slid_clips"]
        return calls

    def requantize_chain(self, src: np.ndarray, dst: np.ndarray, *, shift: int,
                         qmin: int, qmax: int, divisor: int = 1,
                         bound: float = _INF, integral: bool = True,
                         src_mutable: bool = False) -> list[tuple]:
        """Compiled ops for one ``requantize_codes`` call (maybe empty)."""
        chain = ElementwiseChain(src, dst, bound=bound, integral=integral,
                                 src_mutable=src_mutable, fuse=self.fuse)
        chain.scale((2.0 ** float(-shift)) / float(divisor))
        chain.round()
        chain.clip(qmin, qmax)
        return self.chain_calls(chain)


def _meta_bound(meta) -> float:
    return float(meta.max_abs) if meta.max_abs > 0 else _INF


# ---------------------------------------------------------------------- #
# Emitters for the cheap plan steps
# ---------------------------------------------------------------------- #
def _emit_reshape(step, bound, ctx: _TapeBuild):
    src = ctx.arrays[step.inputs[0]]
    ctx.arrays[step.name] = src.reshape(bound.out_shape)
    ctx.report["aliased_views"] += 1
    return []


def _emit_quantize_input(step, bound, ctx: _TapeBuild):
    src = ctx.arrays[step.inputs[0]]
    stage = step.stage
    calls = ctx.requantize_chain(src, bound.output, shift=-stage.fraction,
                                 qmin=stage.qmin, qmax=stage.qmax,
                                 bound=_INF, integral=False)
    return [Instr(step.name, step.op, "quantize", _ops_runner(calls))]


def _emit_activation_only(step, bound, ctx: _TapeBuild):
    src = ctx.arrays[step.inputs[0]]
    meta = bound.in_metas[0]
    if step.op == OpKind.RELU6:
        hi = _relu6_bound(meta.fraction, meta.divisor, step.name)
        run = partial(np.clip, src, 0.0, hi, out=bound.output)
    else:
        run = partial(np.maximum, src, 0.0, out=bound.output)
    return [Instr(step.name, step.op, "activation", run)]


def _emit_add(step, bound, ctx: _TapeBuild):
    a, b = (ctx.arrays[name] for name in step.inputs)
    meta_a, meta_b = bound.in_metas
    shared = step.shared
    out = bound.output
    calls: list[tuple] = []
    operands = []
    for src, meta, dst in ((a, meta_a, None), (b, meta_b, out)):
        shift = meta.fraction - shared.fraction
        probe = ElementwiseChain(src, src, bound=_meta_bound(meta), integral=True,
                                 src_mutable=False, fuse=ctx.fuse)
        probe.scale((2.0 ** float(-shift)) / float(meta.divisor))
        probe.round()
        probe.clip(shared.qmin, shared.qmax)
        ops, _ = probe.compile()
        if not ops and ctx.fuse:
            # No-op requantize: feed the producer's codes to the add directly.
            operands.append(src)
            ctx.report["chains"] += 1
            for key in ("scale", "round", "clip"):
                ctx.report["eliminated"][key] += 1
        else:
            target = dst if dst is not None else ctx.buffer(bound.out_shape)
            calls.extend(ctx.requantize_chain(
                src, target, shift=shift, qmin=shared.qmin, qmax=shared.qmax,
                divisor=meta.divisor, bound=_meta_bound(meta)))
            operands.append(target)
    calls.append((np.add, (operands[0], operands[1], out)))
    tail = ElementwiseChain(out, out, bound=2.0 * _meta_bound(shared),
                            integral=True, src_mutable=True, fuse=ctx.fuse)
    if step.activation == "relu":
        tail.relu()
    elif step.activation == "relu6":
        tail.relu6(_relu6_bound(shared.fraction, 1, step.name))
    if step.output_stage is not None:
        stage = step.output_stage
        tail.scale(2.0 ** float(-(shared.fraction - stage.fraction)))
        tail.round()
        tail.clip(stage.qmin, stage.qmax)
    calls.extend(ctx.chain_calls(tail))
    return [Instr(step.name, step.op, "eltwise_add", _ops_runner(calls))]


def _emit_concat(step, bound, ctx: _TapeBuild):
    shared = step.shared
    axis = step.axis
    out = bound.output
    sizes = [shape[axis] for shape in bound.in_shapes]
    offsets = np.cumsum([0] + sizes)
    calls: list[tuple] = []
    for index, name in enumerate(step.inputs):
        src = ctx.arrays[name]
        meta = bound.in_metas[index]
        region = tuple([slice(None)] * axis
                       + [slice(int(offsets[index]), int(offsets[index + 1]))])
        shift = meta.fraction - shared.fraction
        chain = ElementwiseChain(src, out[region], bound=_meta_bound(meta),
                                 integral=True, src_mutable=False, fuse=ctx.fuse)
        chain.scale((2.0 ** float(-shift)) / float(meta.divisor))
        chain.round()
        chain.clip(shared.qmin, shared.qmax)
        calls.extend(ctx.chain_calls(chain))
    return [Instr(step.name, step.op, "concat", _ops_runner(calls))]


def _emit_leaky_relu(step, bound, ctx: _TapeBuild):
    src = ctx.arrays[step.inputs[0]]
    meta = bound.in_metas[0]
    internal = step.internal
    x16 = ctx.buffer(bound.out_shape)
    scaled = ctx.buffer(bound.out_shape)
    calls = ctx.requantize_chain(src, x16, shift=meta.fraction - internal.fraction,
                                 qmin=internal.qmin, qmax=internal.qmax,
                                 divisor=meta.divisor, bound=_meta_bound(meta))
    if not calls:
        calls = [(np.copyto, (x16, src))]
    calls.append((np.multiply, (x16, float(step.alpha_code), scaled)))
    calls.extend(ctx.requantize_chain(
        scaled, scaled, shift=step.alpha_fraction, qmin=internal.qmin,
        qmax=internal.qmax, bound=float(internal.max_abs) * abs(step.alpha_code),
        src_mutable=True))
    calls.append((_maximum_into, (x16, scaled, scaled)))
    if step.output_stage is not None:
        stage = step.output_stage
        calls.extend(ctx.requantize_chain(
            scaled, bound.output, shift=internal.fraction - stage.fraction,
            qmin=stage.qmin, qmax=stage.qmax, bound=float(internal.max_abs),
            src_mutable=True))
    else:
        calls.append((np.copyto, (bound.output, scaled)))
    return [Instr(step.name, step.op, "leaky_relu", _ops_runner(calls))]


def _emit_max_pool(step, bound, ctx: _TapeBuild):
    src = ctx.arrays[step.inputs[0]]
    n, c, h, w = bound.in_shapes[0]
    (ph, pw), padded = step.padding, None
    if ph or pw:
        padded = ctx.buffer((n, c, h + 2 * ph, w + 2 * pw), zero_key=("pool_padded", ph, pw))
    run = partial(max_pool_codes, src, step.kernel, step.stride, step.padding,
                  padded, bound.output)
    return [Instr(step.name, step.op, "max_pool", run)]


def _emit_global_avg_pool(step, bound, ctx: _TapeBuild):
    src = ctx.arrays[step.inputs[0]]
    out = bound.output
    keepdims = step.keepdims

    def run():
        np.sum(src, axis=(2, 3), keepdims=keepdims, out=out)

    return [Instr(step.name, step.op, "global_avgpool", run)]


# ---------------------------------------------------------------------- #
# Compute-step emission (tunable macro kernels + fused tails)
# ---------------------------------------------------------------------- #
def _tail_instr(step, lane, dst: np.ndarray, ctx: _TapeBuild) -> Instr:
    """The step's fused epilogue: ``lane.acc`` -> requantized codes in ``dst``."""
    calls, _ = tail_chain(lane.constants, lane.acc, dst, fuse=ctx.fuse)
    return Instr(step.name, step.op, "chain", _ops_runner(calls))


def _tunable(step, builders: dict, default: str, ctx: _TapeBuild) -> list:
    ctx.report["tunable_steps"] += 1
    return [_TunableGroup(step.name, step.op, builders, default)]


def _emit_conv(step, bound, ctx: _TapeBuild):
    x = ctx.arrays[step.inputs[0]]
    out = bound.output
    geometry = bound.lanes[0].geometry
    n, o = geometry.batch, geometry.out_channels
    oh, ow = geometry.out_height, geometry.out_width
    kh, kw = geometry.kernel
    sh, sw = geometry.stride
    g = step.groups
    if step.is_depthwise:
        base, spec = "blas", "nchwij,cij->nchw"
    elif g > 1:
        base, spec = "wingemm", "ngchwij,gocij->ngohw"
    else:
        base, spec = "wingemm", "nchwij,ocij->nohw"

    def einsum_variant(lane):
        def build():
            # Resolve the stable strided window view without running the
            # staging fill (the input buffer holds garbage at compile time;
            # filling would cast NaNs into the f32 staging).
            instrs: list[Instr] = []
            padded = lane.geometry._padded
            if padded is not None:
                ph, pw = geometry.padding
                interior = padded[:, :, ph:ph + geometry.height, pw:pw + geometry.width]
                instrs.append(Instr(step.name, step.op, "pad_fill",
                                    partial(np.copyto, interior, x)))
            operand = sliding_window_view(x if padded is None else padded, (kh, kw),
                                          axis=(2, 3))[:, :, ::sh, ::sw]
            target = lane.acc
            if g > 1 and not step.is_depthwise:
                operand = operand.reshape(n, g, geometry.in_channels // g, oh, ow, kh, kw)
                target = target.reshape(n, g, o // g, oh, ow)
            path = np.einsum_path(spec, operand, lane.weight, optimize=True)[0]
            instrs.append(Instr(step.name, step.op, "einsum" + lane.suffix,
                                partial(np.einsum, spec, operand, lane.weight,
                                        out=target, optimize=path)))
            instrs.append(_tail_instr(step, lane, out, ctx))
            return instrs

        return build

    def stack_variant(lane):
        def build():
            dtype = lane.acc.dtype
            ssg = StackedShiftGeometry(n, geometry.in_channels, geometry.height,
                                       geometry.width, geometry.kernel, geometry.stride,
                                       geometry.padding, dtype=dtype, alloc=ctx.buffer)
            pack = pack_stacked_depthwise_weights if step.is_depthwise else pack_stacked_weights
            packed = pack(step.weight_codes, dtype)
            dst = out.reshape(n, o, oh * ow)
            # The raw accumulator can exceed the float32 range, so the GEMM
            # targets the output buffer only when both run in float64 lanes.
            acc = dst if dtype == out.dtype == np.float64 else ctx.buffer(dst.shape, dtype)
            constants = dict(lane.constants)
            if constants["bias_addend"] is not None:
                constants["bias_addend"] = constants["bias_addend"].reshape(1, -1, 1)
            calls, _ = tail_chain(constants, acc, dst, fuse=ctx.fuse)
            return [
                Instr(step.name, step.op, "stack_fill", partial(ssg.fill, x)),
                Instr(step.name, step.op, "stack_gemm",
                      partial(np.matmul, packed, ssg.gemm_view, out=acc)),
                Instr(step.name, step.op, "chain", _ops_runner(calls)),
            ]

        return build

    builders = {base + lane.suffix: einsum_variant(lane) for lane in bound.lanes}
    # Stacked-shift GEMM: ungrouped convs and depthwise (dense-embedded).
    if ((g == 1 or step.is_depthwise)
            and n * kh * kw * geometry.in_channels * oh * ow <= STACKGEMM_MAX_ELEMENTS):
        for lane in bound.lanes:
            builders["stackgemm" + lane.suffix] = stack_variant(lane)
    return _tunable(step, builders, "stackgemm" if "stackgemm" in builders else base, ctx)


def _emit_pointwise(step, bound, ctx: _TapeBuild):
    x = ctx.arrays[step.inputs[0]]
    dst = bound.output.reshape(bound.lanes[0].acc.shape)

    def variant(lane):
        def build():
            gemm = partial(pointwise_accumulate, x, lane.weight, lane.acc,
                           lane.staging, step.subsample)
            return [Instr(step.name, step.op, "pw_gemm" + lane.suffix, gemm),
                    _tail_instr(step, lane, dst, ctx)]

        return build

    builders = {"blas" + lane.suffix: variant(lane) for lane in bound.lanes}
    return _tunable(step, builders, "blas" + bound.lanes[-1].suffix, ctx)


def _emit_linear(step, bound, ctx: _TapeBuild):
    x = ctx.arrays[step.inputs[0]]

    def variant(lane):
        def build():
            calls: list[tuple] = []
            operand = x
            if lane.staging is not None:
                calls.append((np.copyto, (lane.staging, x)))
                operand = lane.staging
            calls.append((np.matmul, (operand, lane.weight, lane.acc)))
            return [Instr(step.name, step.op, "fc_gemm" + lane.suffix, _ops_runner(calls)),
                    _tail_instr(step, lane, bound.output, ctx)]

        return build

    builders = {"blas" + lane.suffix: variant(lane) for lane in bound.lanes}
    return _tunable(step, builders, "blas" + bound.lanes[-1].suffix, ctx)


# ---------------------------------------------------------------------- #
# The compiler
# ---------------------------------------------------------------------- #
_EMITTERS = {
    _ReshapeStep: _emit_reshape,
    _QuantizeInputStep: _emit_quantize_input,
    _ActivationOnlyStep: _emit_activation_only,
    _AddStep: _emit_add,
    _ConcatStep: _emit_concat,
    _LeakyReLUStep: _emit_leaky_relu,
    _MaxPoolStep: _emit_max_pool,
    _GlobalAvgPoolStep: _emit_global_avg_pool,
    _FusedConvStep: _emit_conv,
    _PointwiseConvStep: _emit_pointwise,
    _FusedLinearStep: _emit_linear,
}


def compile_tape(engine, fuse: bool = True) -> TapeProgram:
    """Lower a bound optimized engine into a flat instruction program.

    Every step of an optimized plan has an emitter; a step without one (a
    reference plan's conv/linear step) raises :class:`PlanError`.  The
    tunable groups are resolved from the plan's cached kernel choices when
    present (artifact loads re-profile nothing); otherwise the tape
    autotunes once and caches the choices on the plan.
    """
    plan = engine.plan
    ctx = _TapeBuild(fuse, engine._pool)
    input_buffer = ctx.buffer(engine.input_shape, engine.input_dtype, zero_key=("input",))
    ctx.arrays[plan.input_name] = input_buffer

    items: list = []
    for step, bound in zip(plan.steps, engine.steps):
        emitter = _EMITTERS.get(type(step))
        if emitter is None:
            raise PlanError(f"{step.name}: no tape emitter for {type(step).__name__}; "
                            f"the tape executes optimized plans only")
        items.extend(emitter(step, bound, ctx))
        if step.name not in ctx.arrays:
            ctx.arrays[step.name] = bound.output

    # Cached choices apply before anything materializes, so no group builds
    # (and allocates for) a default variant it would then drop.
    choices = plan.kernel_choices or {}
    for item in items:
        if isinstance(item, _TunableGroup) and choices.get(item.name) in item.builders:
            item.choose(choices[item.name])
    tape = TapeProgram(engine, input_buffer, ctx.arrays[plan.output_name],
                       items, ctx.report)
    if tape.tunable_groups and not choices and plan.autotune:
        plan.kernel_choices = tape.autotune()
    return tape
