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
* each compute step runs one bit-exact kernel chosen by rule, not by
  timing (:func:`conv_kernel`): the :class:`~repro.engine.kernels.StackedShiftGeometry`
  GEMM for dense and small depthwise convs, the window-view einsum for
  grouped and large depthwise convs, the channel-axis and linear GEMMs for
  pointwise and linear steps — in the step's one lane, float32 where proven
  exact and float64 otherwise.  The same plan and shape always compile the
  same tape, wherever it is compiled.

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
from .kernels import StackedShiftGeometry, max_pool_codes, pointwise_accumulate
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

__all__ = ["Instr", "TapeProgram", "compile_tape", "conv_kernel"]

_INF = float("inf")

#: stacked-shift staging is KH*KW times the input tensor; no conv stacks
#: more than this many elements (large feature maps are GEMM-bound anyway,
#: so the stacked GEMM only pays at small sizes).
STACKGEMM_MAX_ELEMENTS = 4_000_000

#: the most work per image (staged elements per image x C) a depthwise
#: conv's dense-embedded stacked GEMM may do; above it the window einsum
#: runs.  Fitted from the by-path sweep in ``benchmarks/test_engine_optimizer.py``
#: (``benchmarks/reports/engine_depthwise_rule.txt``): every registry
#: depthwise conv sits at <= 0.59 M, where the stacked GEMM wins, or at
#: 2.36 M, where the einsum wins by 1.4-1.6x at batch 8.
DEPTHWISE_STACKGEMM_MAX_WORK = 1_000_000


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


class TapeProgram:
    """A compiled flat instruction program over a preallocated arena."""

    def __init__(self, engine, input_buffer: np.ndarray, output_array: np.ndarray,
                 items: list[Instr], kernels: dict[str, str], report: dict) -> None:
        self._engine = engine
        self.input_buffer = input_buffer
        self.output_array = output_array
        #: the flat instruction list, in execution order
        self.items = items
        self._kernels = kernels
        self.report = report
        self._calls = [instr.run for instr in items]
        report["instructions"] = len(items)
        report["kernel_choices"] = dict(kernels)
        #: opt-in per-instruction instrumentation: when set to a callable
        #: ``sink(instr, start_s, end_s)`` (raw ``perf_counter`` stamps),
        #: :meth:`execute` times every instruction through it — see
        #: :func:`repro.telemetry.attach_tape_sink`.  ``None`` (default)
        #: keeps the untimed fast loop; the cost of the hook when unset is
        #: one attribute check per batch.
        self.trace_sink = None

    def execute(self) -> None:
        sink = self.trace_sink
        if sink is not None:
            for instr in self.items:
                start = time.perf_counter()
                instr.run()
                sink(instr, start, time.perf_counter())
            return
        for fn in self._calls:
            fn()

    def choices(self) -> dict[str, str]:
        """Compute step name -> the kernel the rule bound it to (e.g.
        ``"stackgemm32"``, ``"blas"``)."""
        return dict(self._kernels)

    def profile(self, repeats: int = 5) -> list[tuple[str, str, float]]:
        """Per-instruction mean seconds (step name, kind, seconds)."""
        self.execute()
        flat = self.items
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
    def __init__(self, fuse: bool, pool, kernel_batch: int) -> None:
        self.fuse = fuse
        self.pool = pool
        #: the batch the kernel rule sizes stacks by (a bucket's full batch)
        self.kernel_batch = kernel_batch
        self.arrays: dict[str, np.ndarray] = {}
        self.report = {
            "mode": "fused" if fuse else "unfused",
            "aliased_views": 0,
            "chains": 0,
            "chain_ops_recorded": 0,
            "chain_ops_emitted": 0,
            "eliminated": {"scale": 0, "round": 0, "clip": 0, "slid_clips": 0},
        }
        #: compute step name -> the kernel its emitter bound
        self.kernels: dict[str, str] = {}

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
# Compute-step emission: one kernel per step, chosen by rule
# ---------------------------------------------------------------------- #
def conv_kernel(step, geometry, batch: int | None = None) -> str:
    """The kernel the rule binds a conv step to: ``"stackgemm"`` or the
    window einsum (``"blas"`` for depthwise, ``"wingemm"`` otherwise).

    A dense conv runs the stacked-shift GEMM unless it is grouped or its
    stack exceeds :data:`STACKGEMM_MAX_ELEMENTS`.  A depthwise conv runs it
    on dense-embedded ``(C, KH*KW*C)`` weights, which multiplies its work by
    ``C``, so it does only while that work per image stays within
    :data:`DEPTHWISE_STACKGEMM_MAX_WORK`; the einsum is also the only
    depthwise path above the stack cap.  The cap is checked at ``batch``
    (default: the geometry's own); a bucket tape passes its engine's full
    batch, so it binds the kernels the full batch does and stages no stack
    the full batch's arena lacks.
    """
    kh, kw = geometry.kernel
    per_image = kh * kw * geometry.in_channels * geometry.out_height * geometry.out_width
    einsum = "blas" if step.is_depthwise else "wingemm"
    if (geometry.batch if batch is None else batch) * per_image > STACKGEMM_MAX_ELEMENTS:
        return einsum
    if step.is_depthwise:
        fits = per_image * geometry.in_channels <= DEPTHWISE_STACKGEMM_MAX_WORK
        return "stackgemm" if fits else einsum
    return einsum if step.groups > 1 else "stackgemm"


def _tail_instr(step, lane, dst: np.ndarray, ctx: _TapeBuild) -> Instr:
    """The step's fused epilogue: ``lane.acc`` -> requantized codes in ``dst``."""
    calls, _ = tail_chain(lane.constants, lane.acc, dst, fuse=ctx.fuse)
    return Instr(step.name, step.op, "chain", _ops_runner(calls))


def _window_einsum(step, bound, ctx: _TapeBuild) -> list[Instr]:
    """A conv as one einsum over the strided window view of its input."""
    x = ctx.arrays[step.inputs[0]]
    lane = bound.lane
    geometry = lane.geometry
    n, o = geometry.batch, geometry.out_channels
    oh, ow = geometry.out_height, geometry.out_width
    kh, kw = geometry.kernel
    sh, sw = geometry.stride
    g = step.groups
    # Resolve the stable strided window view without running the staging
    # fill (the input buffer holds garbage at compile time; filling would
    # cast NaNs into the float32 staging).
    instrs: list[Instr] = []
    padded = geometry._padded
    if padded is not None:
        ph, pw = geometry.padding
        interior = padded[:, :, ph:ph + geometry.height, pw:pw + geometry.width]
        instrs.append(Instr(step.name, step.op, "pad_fill", partial(np.copyto, interior, x)))
    operand = sliding_window_view(x if padded is None else padded, (kh, kw),
                                  axis=(2, 3))[:, :, ::sh, ::sw]
    target = lane.acc
    if step.is_depthwise:
        spec = "nchwij,cij->nchw"
    elif g > 1:
        spec = "ngchwij,gocij->ngohw"
        operand = operand.reshape(n, g, geometry.in_channels // g, oh, ow, kh, kw)
        target = target.reshape(n, g, o // g, oh, ow)
    else:
        spec = "nchwij,ocij->nohw"
    weight = step.packed_weight(lane.dtype)
    path = np.einsum_path(spec, operand, weight, optimize=True)[0]
    instrs.append(Instr(step.name, step.op, "einsum" + lane.suffix,
                        partial(np.einsum, spec, operand, weight, out=target,
                                optimize=path)))
    instrs.append(_tail_instr(step, lane, bound.output, ctx))
    return instrs


def _stacked_gemm(step, bound, ctx: _TapeBuild) -> list[Instr]:
    """A conv as one batched GEMM over its kernel-offset stack."""
    x = ctx.arrays[step.inputs[0]]
    lane = bound.lane
    geometry = lane.geometry
    n, o = geometry.batch, geometry.out_channels
    ssg = StackedShiftGeometry(n, geometry.in_channels, geometry.height, geometry.width,
                               geometry.kernel, geometry.stride, geometry.padding,
                               dtype=lane.dtype, alloc=ctx.buffer)
    dst = bound.output.reshape(n, o, geometry.out_height * geometry.out_width)
    # The raw accumulator can exceed the float32 range, so the GEMM targets
    # the output buffer only when both are float64.
    acc = dst if lane.dtype == dst.dtype == np.float64 else lane.acc.reshape(dst.shape)
    constants = dict(lane.constants)
    if constants["bias_addend"] is not None:
        constants["bias_addend"] = constants["bias_addend"].reshape(1, -1, 1)
    calls, _ = tail_chain(constants, acc, dst, fuse=ctx.fuse)
    return [
        Instr(step.name, step.op, "stack_fill", partial(ssg.fill, x)),
        Instr(step.name, step.op, "stack_gemm",
              partial(np.matmul, step.packed_weight(lane.dtype, stacked=True),
                      ssg.gemm_view, out=acc)),
        Instr(step.name, step.op, "chain", _ops_runner(calls)),
    ]


def _emit_conv(step, bound, ctx: _TapeBuild):
    kernel = conv_kernel(step, bound.lane.geometry, ctx.kernel_batch)
    ctx.kernels[step.name] = kernel + bound.lane.suffix
    return (_stacked_gemm if kernel == "stackgemm" else _window_einsum)(step, bound, ctx)


def _emit_pointwise(step, bound, ctx: _TapeBuild):
    x = ctx.arrays[step.inputs[0]]
    lane = bound.lane
    ctx.kernels[step.name] = "blas" + lane.suffix
    gemm = partial(pointwise_accumulate, x, step.packed_weight(lane.dtype), lane.acc,
                   lane.staging, step.subsample)
    return [Instr(step.name, step.op, "pw_gemm" + lane.suffix, gemm),
            _tail_instr(step, lane, bound.output.reshape(lane.acc.shape), ctx)]


def _emit_linear(step, bound, ctx: _TapeBuild):
    x = ctx.arrays[step.inputs[0]]
    lane = bound.lane
    ctx.kernels[step.name] = "blas" + lane.suffix
    calls: list[tuple] = []
    operand = x
    if lane.staging is not None:
        calls.append((np.copyto, (lane.staging, x)))
        operand = lane.staging
    calls.append((np.matmul, (operand, step.packed_weight(lane.dtype), lane.acc)))
    return [Instr(step.name, step.op, "fc_gemm" + lane.suffix, _ops_runner(calls)),
            _tail_instr(step, lane, bound.output, ctx)]


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


def compile_tape(engine, fuse: bool = True, kernel_batch: int | None = None) -> TapeProgram:
    """Lower a bound optimized engine into a flat instruction program.

    Every step of an optimized plan has an emitter; a step without one (a
    reference plan's conv/linear step) raises :class:`PlanError`.  Each
    compute step gets the one kernel :func:`conv_kernel` (or, for pointwise
    and linear steps, the GEMM) names, in its one bound lane — nothing is
    timed, so the same plan and shape always compile the same tape.
    ``kernel_batch`` (default: the engine's batch) is the batch the rule
    sizes stacks by; a bucket passes its full batch's.
    """
    plan = engine.plan
    ctx = _TapeBuild(fuse, engine._pool, kernel_batch or engine.batch_size)
    input_buffer = ctx.buffer(engine.input_shape, engine.input_dtype, zero_key=("input",))
    ctx.arrays[plan.input_name] = input_buffer

    items: list[Instr] = []
    for step, bound in zip(plan.steps, engine.steps):
        emitter = _EMITTERS.get(type(step))
        if emitter is None:
            raise PlanError(f"{step.name}: no tape emitter for {type(step).__name__}; "
                            f"the tape executes optimized plans only")
        items.extend(emitter(step, bound, ctx))
        if step.name not in ctx.arrays:
            ctx.arrays[step.name] = bound.output
    return TapeProgram(engine, input_buffer, ctx.arrays[plan.output_name], items,
                       ctx.kernels, ctx.report)
