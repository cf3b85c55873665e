"""Plan-level optimization passes for the integer inference engine.

:func:`optimize_plan` rewrites a lowered :class:`~repro.engine.plan.ExecutionPlan`
— the step-interpreted oracle — into an :class:`OptimizedPlan` whose compute
steps are descriptors for the tape executor (:mod:`repro.engine.program`):
binding one resolves geometry, tail constants, the accumulator-bound and
float32-exactness proofs that pick the step's one lane, and its buffers,
and the tape compiler emits the kernel its rule names.  An optimized plan
has no step interpreter; it executes only as a tape, in exact BLAS lanes.
The passes:

1. **Compute-step fusion / GEMM-epilogue fusion** — every conv/matmul step
   is rewritten so the bias add, 16-bit accumulator stage, activation and
   requantization shift/clamp compile into one elementwise chain that runs
   directly on the kernel's accumulator and writes the requantized codes
   into the output buffer.
2. **im2col elimination** — no optimized convolution materializes im2col
   columns: 1x1 ungrouped convolutions run a GEMM over the channel axis of
   the NCHW tensor, all others contract the strided window view or run the
   tape's stacked-shift GEMM.  Staging buffers (padded inputs, accumulators,
   cast staging) are shared across steps through the bind context's scratch
   pool, so a deep plan allocates each distinct shape once.
3. **Weight packing** — a step packs its weight codes into the layout and
   dtype of the kernel it binds, once (:meth:`_OptimizedStep.packed_weight`),
   and keeps them, so later binds and loaded artifacts reuse them.

Each compute step binds exactly one lane: float32 when
:func:`_f32_exact` proves every intermediate fits 2^24, float64 otherwise.

Every pass is semantics-preserving on the integer grid: the optimized plan
is *bit-exact* against the unoptimized plan (and therefore against the
fake-quant simulation), which the parity suite asserts for every registry
model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..autograd.conv import conv_output_size
from .counters import PIPELINE_COUNTERS
from .kernels import (
    FLOAT32_ACCUMULATOR_LIMIT,
    ConvGeometry,
    _normalize_pair,
    pack_stacked_depthwise_weights,
    pack_stacked_weights,
)
from .plan import (
    CompiledEngine,
    ExecutionPlan,
    PlanError,
    _BoundStep,
    _BufferPool,
    _ComputeStep,
    _ConvStep,
    _LinearStep,
)

__all__ = [
    "ElementwiseChain",
    "OptimizationReport",
    "OptimizedPlan",
    "optimize_plan",
    "tail_chain",
]


# ---------------------------------------------------------------------- #
# Reporting
# ---------------------------------------------------------------------- #
@dataclass
class OptimizationReport:
    """What the pass pipeline did to one plan."""

    passes: list[str] = field(default_factory=list)
    epilogue_fused: int = 0        # compute steps rewritten with fused epilogues
    pointwise_lowered: int = 0     # 1x1 convs rewritten as direct GEMM
    depthwise_direct: int = 0      # depthwise convs (no im2col; stacked GEMM or einsum)

    def to_dict(self) -> dict:
        return {
            "passes": list(self.passes),
            "epilogue_fused": self.epilogue_fused,
            "pointwise_lowered": self.pointwise_lowered,
            "depthwise_direct": self.depthwise_direct,
        }


# ---------------------------------------------------------------------- #
# Elementwise-chain fusion (the tape executor's epilogue compiler)
# ---------------------------------------------------------------------- #
_INF = float("inf")


def _array_is_integral(arr: np.ndarray) -> bool:
    return bool(np.all(arr == np.rint(arr)))


def _maximum_into(a, b, out) -> None:
    np.maximum(a, b, out=out)


def _minimum_into(a, b, out) -> None:
    np.minimum(a, b, out=out)


def _clip_into(a, lo, hi, out) -> None:
    np.clip(a, lo, hi, out=out)


class ElementwiseChain:
    """Compile a requantize/activation/copy chain into a minimal op list.

    The step interpreter executes its post-accumulation pipeline as a fixed
    sequence of small NumPy calls (scale, round, clip, activation, copy) —
    each a full pass over the tensor, each with fixed per-call overhead that
    dominates at nano feature-map sizes.  This builder records the chain
    *declaratively* and compiles it into prebound ``(ufunc, args)`` calls,
    eliminating every operation that is provably the identity on the integer
    grid:

    * ``scale(1.0)`` disappears;
    * ``round`` disappears when the running value is provably integral
      (integer codes scaled by integer factors stay on the grid);
    * ``clip`` disappears when the tracked magnitude bound proves the value
      already inside the clip range;
    * adjacent clips merge into one with intersected bounds;
    * a clip (ReLU is ``clip(0, inf)``, ReLU6 ``clip(0, b)``) slides forward
      past positive scales and rounds — exact whenever its finite bounds land
      on the integer grid after scaling, since monotone rounding commutes
      with clamping at integral thresholds — and merges into the final clamp.

    Every elimination is exactness-preserving, so the compiled chain is
    bit-identical to the naive sequence; ``fuse=False`` compiles the naive
    sequence for A/B benchmarking.  The compiled ops run in place on ``src``
    when ``src_mutable`` (scratch accumulators), otherwise the first op moves
    the value into ``dst``; an empty chain degenerates to one ``copyto`` (or
    nothing, when ``src is dst``).
    """

    def __init__(self, src: np.ndarray, dst: np.ndarray, *, bound: float = _INF,
                 integral: bool = True, src_mutable: bool = False,
                 fuse: bool = True) -> None:
        self.src = src
        self.dst = dst
        self.in_bound = float(bound)
        self.in_integral = integral
        self.src_mutable = src_mutable
        self.fuse = fuse
        self._ops: list[tuple] = []

    # -- recording ----------------------------------------------------- #
    def scale(self, factor: float) -> "ElementwiseChain":
        self._ops.append(("scale", float(factor)))
        return self

    def round(self) -> "ElementwiseChain":
        self._ops.append(("round",))
        return self

    def clip(self, lo: float, hi: float) -> "ElementwiseChain":
        self._ops.append(("clip", float(lo), float(hi)))
        return self

    def relu(self) -> "ElementwiseChain":
        return self.clip(0.0, _INF)

    def relu6(self, bound: float) -> "ElementwiseChain":
        return self.clip(0.0, float(bound))

    def add(self, addend: np.ndarray, bound_after: float | None = None
            ) -> "ElementwiseChain":
        self._ops.append(("add", addend, float(np.max(np.abs(addend), initial=0.0)),
                          _array_is_integral(addend), bound_after))
        return self

    # -- fusion -------------------------------------------------------- #
    def _eliminate(self) -> tuple[list[tuple], dict[str, int]]:
        """Value-tracked elimination + clip merging over the recorded ops."""
        eliminated = {"scale": 0, "round": 0, "clip": 0}
        out: list[tuple] = []
        bound, integral = self.in_bound, self.in_integral
        for op in self._ops:
            kind = op[0]
            if kind == "scale":
                factor = op[1]
                new_bound = bound * abs(factor)
                new_integral = integral and float(factor).is_integer()
                if factor == 1.0:
                    eliminated["scale"] += 1
                else:
                    out.append(op)
                bound, integral = new_bound, new_integral
            elif kind == "round":
                if integral:
                    eliminated["round"] += 1
                else:
                    out.append(op)
                    bound = bound + 0.5
                    integral = True
            elif kind == "clip":
                lo, hi = op[1], op[2]
                if bound <= hi and -bound >= lo:
                    eliminated["clip"] += 1
                    continue
                if (out and out[-1][0] == "clip"
                        and max(out[-1][1], lo) <= min(out[-1][2], hi)):
                    lo, hi = max(out[-1][1], lo), min(out[-1][2], hi)
                    out[-1] = ("clip", lo, hi)
                    eliminated["clip"] += 1
                else:
                    out.append(op)
                # Post-clip range is [max(-bound, lo), min(bound, hi)].
                bound = max(abs(max(-bound, lo)), abs(min(bound, hi)))
            else:  # add
                _, addend, addend_bound, addend_integral, bound_after = op
                out.append(op)
                bound = bound_after if bound_after is not None else bound + addend_bound
                integral = integral and addend_integral
        return out, eliminated

    @staticmethod
    def _slide_clips(ops: list[tuple]) -> tuple[list[tuple], int]:
        """Slide clips forward past positive scales/rounds into a later clip.

        Exact iff each finite clip bound stays on the integer grid after the
        intervening scales (monotone round then commutes with the clamp).
        """
        slid = 0
        changed = True
        while changed:
            changed = False
            for i, op in enumerate(ops):
                if op[0] != "clip":
                    continue
                lo, hi = op[1], op[2]

                def _on_grid(value: float, factor: float) -> bool:
                    return value in (-_INF, _INF) or float(value * factor).is_integer()

                factor = 1.0
                j = i + 1
                ok = True
                while j < len(ops) and ops[j][0] != "clip":
                    if ops[j][0] == "scale" and ops[j][1] > 0:
                        factor *= ops[j][1]
                    elif ops[j][0] == "round":
                        # Clamping commutes with monotone rounding only at
                        # integral thresholds — check at this point, not
                        # just at the destination clip.
                        if not (_on_grid(lo, factor) and _on_grid(hi, factor)):
                            ok = False
                            break
                    else:
                        ok = False
                        break
                    j += 1
                if not ok or j >= len(ops) or ops[j][0] != "clip":
                    continue
                lo_s = lo * factor if lo != -_INF else -_INF
                hi_s = hi * factor if hi != _INF else _INF
                if not (_on_grid(lo, factor) and _on_grid(hi, factor)):
                    continue
                nlo, nhi = ops[j][1], ops[j][2]
                if max(nlo, lo_s) > min(nhi, hi_s):
                    # Disjoint clamp ranges do not compose into one clip.
                    continue
                ops[j] = ("clip", max(nlo, lo_s), min(nhi, hi_s))
                del ops[i]
                slid += 1
                changed = True
                break
        return ops, slid

    # -- codegen ------------------------------------------------------- #
    def compile(self) -> tuple[list[tuple], dict[str, int]]:
        """Lower to prebound ``(callable, args)`` pairs plus fusion stats."""
        stats = {"ops_recorded": len(self._ops), "scale": 0, "round": 0,
                 "clip": 0, "slid_clips": 0, "copies": 0}
        if self.fuse:
            ops, eliminated = self._eliminate()
            ops, slid = self._slide_clips(ops)
            stats.update(eliminated)
            stats["slid_clips"] = slid
        else:
            ops = [op for op in self._ops]
        calls: list[tuple] = []
        src, dst = self.src, self.dst
        if not ops:
            if src is not dst:
                calls.append((np.copyto, (dst, src)))
                stats["copies"] = 1
            stats["ops_emitted"] = len(calls)
            return calls, stats
        cur = src
        for index, op in enumerate(ops):
            last = index == len(ops) - 1
            if last:
                target = dst
            elif cur is not src or self.src_mutable:
                target = cur
            else:
                target = dst
            kind = op[0]
            if kind == "scale":
                calls.append((np.multiply, (cur, op[1], target)))
            elif kind == "round":
                calls.append((np.rint, (cur, target)))
            elif kind == "clip":
                lo, hi = op[1], op[2]
                if lo == -_INF:
                    calls.append((_minimum_into, (cur, hi, target)))
                elif hi == _INF:
                    calls.append((_maximum_into, (cur, lo, target)))
                else:
                    calls.append((_clip_into, (cur, lo, hi, target)))
            else:  # add
                calls.append((np.add, (cur, op[1], target)))
            cur = target
        stats["ops_emitted"] = len(calls)
        return calls, stats


def tail_chain(constants: dict, src: np.ndarray, dst: np.ndarray, *,
               fuse: bool = True) -> tuple[list[tuple], dict]:
    """Compile a compute step's post-accumulation tail as a fused chain.

    Mirrors :func:`repro.engine.plan._run_compute_tail` — bias add, 16-bit
    accumulator stage, activation, output requantize — from the step's
    resolved tail ``constants``; the chain runs in place on the accumulator
    ``src`` and lands the codes in ``dst``.
    """
    chain = ElementwiseChain(src, dst, bound=float(constants.get("acc_bound", _INF)),
                             integral=True, src_mutable=True, fuse=fuse)
    divisor = constants["divisor"]
    if constants["bias_addend"] is not None:
        if constants["acc_shift_up"] != 1.0:
            chain.scale(constants["acc_shift_up"])
        chain.add(constants["bias_addend"],
                  bound_after=float(constants.get("acc_bound", _INF)))
    if constants["internal_shift"] is not None:
        stage = constants["internal"]
        chain.scale((2.0 ** float(-constants["internal_shift"])) / float(divisor))
        chain.round()
        chain.clip(stage.qmin, stage.qmax)
        divisor = 1
    if constants["activation"] == "relu":
        chain.relu()
    elif constants["activation"] == "relu6":
        chain.relu6(constants["relu6_bound"])
    if constants["output_shift"] is not None:
        stage = constants["output_stage"]
        chain.scale((2.0 ** float(-constants["output_shift"])) / float(divisor))
        chain.round()
        chain.clip(stage.qmin, stage.qmax)
    return chain.compile()


# ---------------------------------------------------------------------- #
# Bound optimized steps: facts for the tape emitters, no interpreter
# ---------------------------------------------------------------------- #
@dataclass
class _Lane:
    """The one exact accumulation lane of a bound optimized compute step.

    float32 (half the memory traffic, sgemm instead of dgemm) when
    :func:`_f32_exact` proved every intermediate of the step fits 2^24,
    float64 otherwise.  A lane holds what its kernel writes and stages: the
    accumulator buffer, the cast/pad staging and the tail constants with
    the bias staged in the lane's dtype.
    """

    acc: np.ndarray
    constants: dict
    staging: np.ndarray | None = None       # pointwise / linear cast staging
    geometry: ConvGeometry | None = None    # conv window geometry + padded staging

    @property
    def dtype(self) -> np.dtype:
        return self.acc.dtype

    @property
    def suffix(self) -> str:
        """Kernel-name suffix of the lane: ``""`` (float64) | ``"32"``."""
        return "32" if self.dtype == np.float32 else ""


class _BoundKernel(_BoundStep):
    """A bound optimized compute step: the one exact lane the tape emitters
    of :mod:`repro.engine.program` run its kernel in.  It has no interpreter."""

    def __init__(self, step, input_slots, output_slot, output, lane: _Lane) -> None:
        super().__init__(step, input_slots, output_slot, output)
        self.lane = lane

    def run(self, env) -> None:
        raise PlanError(
            f"{self.step.name}: an optimized plan executes only as a tape; the step "
            f"interpreter runs the reference plan — lower with optimize=False")


def _f32_exact(constants: dict, accumulator_bound: int, in_max_abs: int) -> bool:
    """True when every intermediate of the step provably fits float32 lanes.

    The GEMM partial sums are bounded by the (post-bias) accumulator bound;
    requantization stages scale by ``2^-shift`` *before* clipping, so a
    negative shift can grow the pre-clip value and must be checked too.
    """
    worst = current = float(accumulator_bound)
    if constants["internal_shift"] is not None:
        worst = max(worst, current * 2.0 ** float(-constants["internal_shift"]))
        current = float(constants["internal"].max_abs)
    if constants["output_shift"] is not None:
        worst = max(worst, current * 2.0 ** float(-constants["output_shift"]))
    return max(worst, float(in_max_abs)) < FLOAT32_ACCUMULATOR_LIMIT


def _out_dtype(constants: dict) -> np.dtype:
    """float32 output lanes when every output code provably fits 2^24.

    Post-requantize codes are bounded by the output meta's ``max_abs``;
    below the float32 exact-integer limit the half-width buffer halves the
    write+read traffic at the step boundary and every consumer stays exact
    (downstream GEMMs/reductions with float64 targets promote — verified —
    and staging copies cast on write).  GEMM accumulators never target these
    buffers directly when the lanes are narrow.
    """
    if 0 < constants["out_meta"].max_abs < FLOAT32_ACCUMULATOR_LIMIT:
        return np.dtype(np.float32)
    return np.dtype(np.float64)


def _f32_constants(constants: dict) -> dict:
    """Tail constants with the bias addend staged in float32 lanes."""
    if constants["bias_addend"] is None:
        return constants
    lowered = dict(constants)
    lowered["bias_addend"] = constants["bias_addend"].astype(np.float32)
    return lowered


# ---------------------------------------------------------------------- #
# Optimized compute steps
# ---------------------------------------------------------------------- #
class _OptimizedStep(_ComputeStep):
    """Constructor, weight packing and bind skeleton shared by the
    optimized steps.

    A subclass names the shape fields it keeps from the reference step it
    rewrites, the weight layout its kernels read, and — in ``bind`` — the
    accumulator and staging buffers of its lane; :meth:`_bind_lane` does
    the rest in the same order for all three.
    """

    #: fields copied from the reference step (pickled under these names)
    _SHAPE_FIELDS: tuple[str, ...] = ()

    def __init__(self, src: _ComputeStep) -> None:
        super().__init__(src.name, src.op, list(src.inputs),
                         weight_codes=src.weight_codes,
                         weight_fraction=src.weight_fraction,
                         bias_codes=src.bias_codes, bias_fraction=src.bias_fraction,
                         internal=src.internal, activation=src.activation,
                         output=src.output_stage)
        for name in self._SHAPE_FIELDS:
            setattr(self, name, getattr(src, name))
        #: (layout, dtype) -> weight codes packed for a kernel, filled by the
        #: binds that need them and pickled with the plan
        self.packed: dict[tuple, np.ndarray] = {}

    def _weight_layout(self) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def _stacked_layout(self, dtype) -> np.ndarray:  # pragma: no cover - convs only
        raise NotImplementedError

    def packed_weight(self, dtype, stacked: bool = False) -> np.ndarray:
        """The weight codes in a kernel's layout and dtype, packed once.

        The default layout is the one the GEMMs and window einsums read;
        ``stacked`` is the stacked-shift GEMM's (convolutions only).
        """
        key = ("stacked" if stacked else "gemm", np.dtype(dtype).str)
        if key not in self.packed:
            self.packed[key] = (self._stacked_layout(dtype) if stacked else
                                np.ascontiguousarray(self._weight_layout(), dtype=dtype))
        return self.packed[key]

    def _bind_lane(self, x, ctx, out_shape: tuple, k_per_output: int,
                   bias_shape: tuple, lane):
        """Tail constants, bias reshape, output buffer and the one lane:
        float32 when :func:`_f32_exact` proves it, float64 otherwise.
        ``lane(dtype, out)`` returns the lane's ``acc`` / ``staging`` /
        ``geometry``."""
        constants = self._tail_constants(
            x.meta, k_per_output=k_per_output,
            weight_max_abs=int(np.max(np.abs(self.weight_codes), initial=0)))
        if constants["bias_addend"] is not None:
            constants["bias_addend"] = constants["bias_addend"].reshape(bias_shape)
        out = ctx.pool.acquire(out_shape, _out_dtype(constants))
        dtype = np.float64
        if _f32_exact(constants, self.accumulator_bound, x.meta.max_abs):
            dtype, constants = np.float32, _f32_constants(constants)
        bound_lane = _Lane(constants=constants, **lane(dtype, out))
        return partial(_BoundKernel, lane=bound_lane), out_shape, constants["out_meta"], out


_CONV_FIELDS = ("out_channels", "kernel_size", "stride", "padding", "groups")


class _FusedConvStep(_OptimizedStep):
    """Conv step with packed weights and the epilogue fused onto the kernel.

    Every family either contracts the strided window view directly —
    depthwise against per-channel filters, dense and grouped convolutions
    against their ``(O, C, KH, KW)`` / ``(G, Og, Cg, KH, KW)`` filter blocks
    — or runs the tape's stacked-shift GEMM, as
    :func:`repro.engine.program.conv_kernel` rules; no im2col column copy,
    no accumulator→image transpose.
    """

    _SHAPE_FIELDS = _CONV_FIELDS

    @property
    def is_depthwise(self) -> bool:
        return (self.groups > 1 and self.groups == self.out_channels
                and self.weight_codes.shape[1] == 1)

    def _weight_layout(self) -> np.ndarray:
        g = self.groups
        o, cg, kh, kw = self.weight_codes.shape
        if self.is_depthwise:
            return self.weight_codes.reshape(g, kh, kw)
        if g == 1:
            return self.weight_codes
        # (G, Og, Cg, KH, KW): splitting the window view's channel axis into
        # (G, Cg) is stride-free, so each group contracts against its own
        # filter block.
        return self.weight_codes.reshape(g, o // g, cg, kh, kw)

    def _stacked_layout(self, dtype) -> np.ndarray:
        pack = pack_stacked_depthwise_weights if self.is_depthwise else pack_stacked_weights
        return pack(self.weight_codes, dtype)

    def describe(self) -> str:
        kind = "depthwise-direct" if self.is_depthwise else "window-gemm"
        return super().describe() + f", fused-epilogue[{kind}]"

    def bind(self, values, ctx):
        (x,) = values
        n, c_in, h, w = x.shape
        kernel = _normalize_pair(self.kernel_size)
        shape = (n, self.out_channels) + tuple(
            conv_output_size(size, k, s, p) for size, k, s, p in
            zip((h, w), kernel, _normalize_pair(self.stride), _normalize_pair(self.padding)))

        def lane(dtype, out):
            return dict(acc=ctx.scratch(("conv_image",), shape, dtype),
                        geometry=ConvGeometry.from_module(
                            n, c_in, h, w, self.out_channels, kernel, self.stride,
                            self.padding, self.groups, dtype=dtype, scratch=ctx.scratch))

        k = (c_in // self.groups) * kernel[0] * kernel[1]
        return self._bind_lane(x, ctx, shape, k, (1, -1, 1, 1), lane)


class _PointwiseConvStep(_OptimizedStep):
    """1x1 ungrouped conv as a direct channel-axis GEMM (im2col eliminated)."""

    _SHAPE_FIELDS = _CONV_FIELDS

    @classmethod
    def eligible(cls, src) -> bool:
        return (isinstance(src, _ConvStep) and src.groups == 1
                and _normalize_pair(src.kernel_size) == (1, 1)
                and _normalize_pair(src.padding) == (0, 0))

    @property
    def subsample(self) -> tuple[int, int] | None:
        """Spatial stride of the 1x1 conv; ``None`` when it reads every pixel."""
        stride = _normalize_pair(self.stride)
        return stride if stride != (1, 1) else None

    def _weight_layout(self) -> np.ndarray:
        return self.weight_codes.reshape(self.out_channels, -1)

    def describe(self) -> str:
        return super().describe() + ", pointwise-gemm[no-im2col]"

    def bind(self, values, ctx):
        (x,) = values
        n, c_in, h, w = x.shape
        sh, sw = self.subsample or (1, 1)
        oh, ow = (h - 1) // sh + 1, (w - 1) // sw + 1
        gemm_shape = (n, self.out_channels, oh * ow)

        def lane(dtype, out):
            # The GEMM may only target the output buffer directly when its
            # lanes are float64 — the raw accumulator can exceed the float32
            # range; strided or narrowed inputs need a staging copy.
            acc = (out.reshape(gemm_shape) if out.dtype == dtype == np.float64
                   else ctx.scratch(("pw_acc",), gemm_shape, dtype))
            staging = (ctx.scratch(("pw_staging",), (n, c_in, oh, ow), dtype)
                       if self.subsample is not None or dtype != np.float64 else None)
            return dict(acc=acc, staging=staging)

        return self._bind_lane(x, ctx, (n, self.out_channels, oh, ow), c_in,
                               (1, -1, 1), lane)


class _FusedLinearStep(_OptimizedStep):
    """Linear step with packed weights and an in-place epilogue."""

    _SHAPE_FIELDS = ("out_features", "in_features")

    def _weight_layout(self) -> np.ndarray:
        return self.weight_codes.T

    def describe(self) -> str:
        return super().describe() + ", fused-epilogue[gemm]"

    def bind(self, values, ctx):
        (x,) = values
        if len(x.shape) != 2 or x.shape[1] != self.in_features:
            raise PlanError(f"{self.name}: expected input (N, {self.in_features}), "
                            f"got {x.shape}")
        shape = (x.shape[0], self.out_features)

        def lane(dtype, out):
            acc = (out if out.dtype == dtype == np.float64
                   else ctx.scratch(("fc_acc",), shape, dtype))
            staging = (None if dtype == np.float64
                       else ctx.scratch(("fc_staging",), x.shape, dtype))
            return dict(acc=acc, staging=staging)

        return self._bind_lane(x, ctx, shape, self.in_features, (1, -1), lane)


# ---------------------------------------------------------------------- #
# The pass pipeline
# ---------------------------------------------------------------------- #
@dataclass
class OptimizedPlan(ExecutionPlan):
    """An execution plan rewritten by the optimizer pass pipeline.

    It executes only as a tape in exact BLAS lanes, each compute step in
    the kernel and lane its rule binds (see :mod:`repro.engine.program`).
    """

    report: OptimizationReport | None = None

    @property
    def kernel_choices(self) -> dict[str, str]:
        """Compute step -> kernel of the plan's last full-batch bind.

        Derived from the tape; artifacts carry none.  The frozen
        ``benchmarks/e2e`` probe still reads it here (ROADMAP 2(c)); read
        ``engine.tape.choices()`` instead.
        """
        return dict(self.__dict__.get("_kernels", {}))

    @property
    def tape_kernel_choices(self) -> dict[str, str]:
        """Alias of :attr:`kernel_choices` for the frozen ``benchmarks/e2e``
        probe (ROADMAP 2(c))."""
        return self.kernel_choices

    def __getstate__(self) -> dict:
        # The rule re-derives the kernels at every bind.
        return {k: v for k, v in self.__dict__.items() if k != "_kernels"}

    def bind(self, input_shape, accumulate: str = "blas", mode: str = "tape",
             fuse: bool = True) -> CompiledEngine:
        if accumulate != "blas" or mode != "tape":
            raise ValueError(
                f"an optimized plan executes only as a tape in the BLAS lanes, got "
                f"accumulate={accumulate!r}, mode={mode!r}; int64 accumulation and the "
                f"step interpreter are the oracle — lower with optimize=False")
        engine = self._bind(tuple(int(s) for s in input_shape), "blas", "tape", fuse,
                            _BufferPool())
        PIPELINE_COUNTERS.tape_compilations += 1
        self._kernels = engine.tape.choices()
        # Bucket engines at every power of two below the batch: the same
        # steps, packed weights and kernels, bound over views of the
        # engine's arena (``run_partial`` picks by fill).
        rest, size = engine.input_shape[1:], 1
        while size < engine.batch_size:
            engine._buckets.append(self._bind((size, *rest), "blas", "tape", fuse,
                                              _BufferPool(donor=engine._pool),
                                              kernel_batch=engine.batch_size))
            size *= 2
        return engine

    def manifest(self) -> dict:
        data = super().manifest()
        if self.report is not None:
            data["optimizer"] = self.report.to_dict()
        return data


def _rewrite_compute_steps(steps: list, report: OptimizationReport) -> list:
    out = []
    for step in steps:
        if _PointwiseConvStep.eligible(step):
            step = _PointwiseConvStep(step)
            report.pointwise_lowered += 1
        elif isinstance(step, _ConvStep):
            step = _FusedConvStep(step)
            if step.is_depthwise:
                report.depthwise_direct += 1
            else:
                report.epilogue_fused += 1
        elif isinstance(step, _LinearStep):
            step = _FusedLinearStep(step)
            report.epilogue_fused += 1
        out.append(step)
    return out


def optimize_plan(plan: ExecutionPlan, *, autotune: bool = False) -> OptimizedPlan:
    """Run the optimization pass pipeline over a lowered plan.

    Returns a new :class:`OptimizedPlan`; the input plan is left untouched
    (weight code arrays are shared read-only).  Every pass preserves
    bit-exactness against the unoptimized plan.  ``autotune`` is accepted
    and ignored for the frozen ``benchmarks/e2e`` probe (ROADMAP 2(c)).
    """
    PIPELINE_COUNTERS.optimizations += 1
    report = OptimizationReport()
    report.passes += ["fuse_compute_epilogues", "eliminate_im2col"]
    steps = _rewrite_compute_steps(plan.steps, report)
    return OptimizedPlan(graph_name=plan.graph_name, input_name=plan.input_name,
                         output_name=plan.output_name, steps=steps, report=report)
