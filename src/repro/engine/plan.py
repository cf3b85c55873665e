"""Lowering of quantized graphs into integer-only execution plans.

:func:`lower_graph` walks a quantized :class:`~repro.graph.ir.GraphIR`
(after ``bn_fold`` / ``avgpool_to_dwconv`` and the quantization pass) and
emits an :class:`ExecutionPlan`: a linear sequence of integer steps whose
runtime values are quantization *codes* rather than fake-quantized floats.
Every tensor in the plan carries a :class:`ValueMeta` — the value it stands
for is ``codes * 2^-fraction / divisor`` — and every layer boundary is a
power-of-2 requantization shift (Eq. 16), so the whole network runs in
integer arithmetic exactly as the paper's fixed-point deployment does.

``ExecutionPlan.bind(input_shape)`` turns the symbolic plan into a
step-interpreted :class:`CompiledEngine` (an optimized plan's ``bind``
compiles a tape instead; each plan has exactly one executor): shapes are
inferred, weight matrices are staged for the accumulation backend,
worst-case accumulator magnitudes are verified (exactness + int32-MAC fit),
and a linear-scan register allocator assigns every step an output buffer
from a reuse pool so the steady-state forward pass allocates nothing.

The plan is *bit-exact* against the float fake-quant simulation: the parity
suite (:mod:`repro.engine.parity`) asserts identical output codes for every
model in the registry.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field

import numpy as np

from ..graph.ir import GraphIR, Node, OpKind
from ..nn import GlobalAvgPool2d, MaxPool2d
from ..quant.fixed_point import code_dtype, requantize_codes
from ..quant.qmodules import (
    ActivationQuantizer,
    QuantizedAdd,
    QuantizedConcat,
    QuantizedConv2d,
    QuantizedInput,
    QuantizedLeakyReLU,
    QuantizedLinear,
)
from ..quant.tqt import TQTQuantizer
from .counters import PIPELINE_COUNTERS
from .kernels import (
    INT32_ACCUMULATOR_LIMIT,
    ConvGeometry,
    _normalize_pair,
    assert_exact_accumulation,
    conv_accumulate,
    depthwise_accumulate,
    matmul_accumulate,
    max_pool_codes,
)

__all__ = [
    "PlanError",
    "QuantStage",
    "ValueMeta",
    "ExecutionPlan",
    "CompiledEngine",
    "EngineOutput",
    "StepTiming",
    "PlanProfile",
    "lower_graph",
]


class PlanError(RuntimeError):
    """The graph cannot be lowered to an integer-only plan."""


# ---------------------------------------------------------------------- #
# Quantizer introspection
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class QuantStage:
    """One requantization stage: target fractional length plus clip range."""

    fraction: int
    qmin: int
    qmax: int
    bits: int

    @property
    def max_abs(self) -> int:
        return max(abs(self.qmin), abs(self.qmax))


def _require_tqt(module, what: str) -> TQTQuantizer:
    if not isinstance(module, TQTQuantizer):
        raise PlanError(f"{what}: integer lowering requires TQT quantizers, "
                        f"got {type(module).__name__}")
    if not module.config.power_of_2:
        raise PlanError(f"{what}: integer lowering requires power-of-2 scale factors")
    if module.channel_axis is not None:
        raise PlanError(f"{what}: per-channel thresholds are not supported by the engine")
    return module


def _stage_from(quantizer: TQTQuantizer) -> QuantStage:
    fraction = int(np.asarray(quantizer.fractional_length).reshape(-1)[0])
    config = quantizer.config
    return QuantStage(fraction=fraction, qmin=config.qmin, qmax=config.qmax,
                      bits=config.bits)


def _output_stage(quantizer: ActivationQuantizer | None, what: str) -> QuantStage | None:
    """Stage for an output/input activation quantizer; ``None`` when bypassed."""
    if quantizer is None or quantizer.mode == "bypass":
        return None
    if quantizer.mode != "quantize":
        raise PlanError(f"{what}: quantizer is in {quantizer.mode!r} mode; "
                        f"finish calibration before lowering")
    return _stage_from(_require_tqt(quantizer.impl, what))


def _internal_stage(quantizer: ActivationQuantizer | None, what: str) -> QuantStage | None:
    """Stage for a compute layer's 16-bit accumulator emulation.

    Mirrors the gating in ``QuantizedConv2d.forward``: in quantize mode the
    stage only applies once a threshold has been calibrated.
    """
    if quantizer is None or quantizer.mode == "bypass":
        return None
    if quantizer.mode != "quantize":
        raise PlanError(f"{what}: quantizer is in {quantizer.mode!r} mode; "
                        f"finish calibration before lowering")
    impl = _require_tqt(quantizer.impl, what)
    if not getattr(impl, "calibrated", True):
        return None
    return _stage_from(impl)


@dataclass(frozen=True)
class ValueMeta:
    """Meaning of an integer buffer: ``value = codes * 2^-fraction / divisor``.

    ``max_abs`` bounds the code magnitude and feeds the accumulator range
    checks (exact float64 lanes, int32 MAC fit).
    """

    fraction: int
    divisor: int = 1
    max_abs: int = 0


def _relu6_bound(fraction: int, divisor: int, where: str) -> float:
    """Upper clip bound of ReLU6 expressed in the code domain."""
    bound = 6.0 * divisor * (2.0 ** fraction)
    if bound != np.floor(bound):
        raise PlanError(f"{where}: ReLU6 clip at 6.0 does not land on the integer grid "
                        f"(fraction {fraction}, divisor {divisor})")
    return bound


def _apply_activation(acc: np.ndarray, activation: str, bound: float | None) -> None:
    if activation == "relu":
        np.maximum(acc, 0.0, out=acc)
    elif activation == "relu6":
        np.clip(acc, 0.0, bound, out=acc)


# ---------------------------------------------------------------------- #
# Bind-time infrastructure
# ---------------------------------------------------------------------- #
class _BufferPool:
    """The one arena of an engine: an exact-shape free-list allocator.

    Every buffer a bind or a tape emitter creates comes from here.  A
    *bucket* pool (``donor`` = the pool of the batch-B engine the bucket
    was bound beside) hands out the leading-batch view ``big[:b]`` of a
    live donor buffer of the same trailing shape, dtype and ``zero_key``,
    each donor buffer backing at most one bucket buffer; it allocates only
    when no such buffer is left.  One engine's tapes never run
    concurrently, so only the bucket's own liveness matters, and that
    mirrors B's.
    """

    def __init__(self, donor: "_BufferPool | None" = None) -> None:
        self._free: dict[tuple, list[np.ndarray]] = {}
        self._donor = donor
        #: (kind, weakref) per created buffer, in creation order; donors
        #: lend only buffers their engine still holds
        self._created: list[tuple] = []
        self._borrowed: set[int] = set()
        self.buffers_created = 0
        self.bytes_created = 0

    def acquire(self, shape: tuple[int, ...], dtype=np.float64,
                fresh: bool = False, zero_key=None) -> np.ndarray:
        """Hand out a buffer; ``fresh=True`` bypasses the free list.

        A recycled buffer may double as an earlier step's output storage
        (written every forward pass), which is fine for storage that is
        fully overwritten before each use but fatal for buffers that rely
        on contents persisting across passes (zero-padded borders).  Those
        pass a ``zero_key`` naming everything that fixes where the zeros
        sit: they are zero-filled, never recycled, and shared with a donor
        only under the same key.
        """
        shape = tuple(int(s) for s in shape)
        dtype = np.dtype(dtype)
        if not fresh and zero_key is None:
            free = self._free.get((shape, dtype))
            if free:
                return free.pop()
        kind = (shape[1:], dtype, zero_key)
        if self._donor is not None:
            for index, (donor_kind, ref) in enumerate(self._donor._created):
                big = ref() if donor_kind == kind and index not in self._borrowed else None
                if big is not None and len(big) >= shape[0]:
                    self._borrowed.add(index)
                    return big[:shape[0]]
        self.buffers_created += 1
        buffer = np.zeros(shape, dtype) if zero_key is not None else np.empty(shape, dtype)
        self.bytes_created += buffer.nbytes
        self._created.append((kind, weakref.ref(buffer)))
        return buffer

    def release(self, buffer: np.ndarray) -> None:
        self._free.setdefault((buffer.shape, buffer.dtype), []).append(buffer)


@dataclass
class _BoundValue:
    """A node's bound tensor: its runtime slot, shape and meta."""

    slot: int
    shape: tuple[int, ...]
    meta: ValueMeta


class _BindContext:
    def __init__(self, pool: _BufferPool, accumulate: str) -> None:
        self.pool = pool
        self.accumulate = accumulate
        self._scratch: dict = {}

    def scratch(self, key, shape: tuple[int, ...], dtype=np.float64,
                zero: bool = False) -> np.ndarray:
        """Persistent per-engine scratch buffer, shared across steps by key.

        Steps run sequentially and fully consume their scratch (columns,
        accumulators, cast staging) within one ``run`` call, so steps whose
        scratch agrees on ``(key, shape, dtype)`` can share a single buffer.
        ``zero`` buffers are zero-filled at creation and allocated *fresh*
        (never from the free list): their zeros must survive across passes,
        so they can never alias a recycled step-output buffer.  Sharers of a
        zeroed buffer must key on everything that determines which region
        they overwrite (e.g. the padded-input interior).
        """
        shape = tuple(int(s) for s in shape)
        full_key = (key, shape, np.dtype(dtype))
        buffer = self._scratch.get(full_key)
        if buffer is None:
            buffer = self.pool.acquire(shape, dtype, zero_key=key if zero else None)
            self._scratch[full_key] = buffer
        return buffer


# ---------------------------------------------------------------------- #
# Symbolic steps
# ---------------------------------------------------------------------- #
class _Step:
    """One symbolic plan step (per graph node)."""

    #: alias steps reuse their input's storage instead of acquiring a buffer
    alias = False

    def __init__(self, name: str, op: str, inputs: list[str]) -> None:
        self.name = name
        self.op = op
        self.inputs = inputs

    def describe(self) -> str:
        return ""

    # Subclasses implement bind(values, ctx) -> (BoundStep, shape, meta).


class _BoundStep:
    """A bound step: concrete buffers, constants and a ``run(env)`` method."""

    def __init__(self, step: _Step, input_slots: list[int], output_slot: int,
                 output: np.ndarray | None) -> None:
        self.step = step
        self.input_slots = input_slots
        self.output_slot = output_slot
        self.output = output

    def run(self, env: list) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class _QuantizeInputStep(_Step):
    def __init__(self, name: str, inputs: list[str], stage: QuantStage) -> None:
        super().__init__(name, OpKind.QUANTIZE, inputs)
        self.stage = stage

    def describe(self) -> str:
        return f"q{self.stage.bits} f={self.stage.fraction}"

    def bind(self, values, ctx):
        (x,) = values
        out = ctx.pool.acquire(x.shape)
        stage = self.stage

        class Bound(_BoundStep):
            def run(self, env):
                requantize_codes(env[self.input_slots[0]], -stage.fraction,
                                 stage.qmin, stage.qmax, out=self.output)
                env[self.output_slot] = self.output

        meta = ValueMeta(fraction=stage.fraction, divisor=1, max_abs=stage.max_abs)
        return Bound, x.shape, meta, out


class _ComputeStep(_Step):
    """Shared bias/activation/requantization tail of conv and linear steps."""

    def __init__(self, name: str, op: str, inputs: list[str], *,
                 weight_codes: np.ndarray, weight_fraction: int,
                 bias_codes: np.ndarray | None, bias_fraction: int,
                 internal: QuantStage | None, activation: str,
                 output: QuantStage | None) -> None:
        super().__init__(name, op, inputs)
        self.weight_codes = weight_codes
        self.weight_fraction = weight_fraction
        self.bias_codes = bias_codes
        self.bias_fraction = bias_fraction
        self.internal = internal
        self.activation = activation
        self.output_stage = output
        # Filled in at bind time, surfaced by the manifest.
        self.accumulator_bound: int = 0
        self.fits_int32: bool = True

    def describe(self) -> str:
        parts = [f"w{self.weight_codes.dtype.itemsize * 8}({self.weight_codes.dtype}) "
                 f"f_w={self.weight_fraction}"]
        if self.bias_codes is not None:
            parts.append(f"bias f_b={self.bias_fraction}")
        if self.internal is not None:
            parts.append(f"acc→q{self.internal.bits}")
        if self.activation != "none":
            parts.append(self.activation)
        if self.output_stage is not None:
            parts.append(f"out→q{self.output_stage.bits} f={self.output_stage.fraction}")
        return ", ".join(parts)

    def _tail_constants(self, in_meta: ValueMeta, k_per_output: int,
                        weight_max_abs: int) -> dict:
        """Resolve the post-accumulation pipeline once the input meta is known."""
        acc_fraction = in_meta.fraction + self.weight_fraction
        divisor = in_meta.divisor
        acc_bound = k_per_output * in_meta.max_abs * weight_max_abs

        common_fraction = acc_fraction
        bias_addend = None
        if self.bias_codes is not None:
            common_fraction = max(acc_fraction, self.bias_fraction)
            acc_shift_up = 2.0 ** (common_fraction - acc_fraction)
            bias_addend = (self.bias_codes.astype(np.float64)
                           * divisor * 2.0 ** (common_fraction - self.bias_fraction))
            acc_bound = int(acc_bound * acc_shift_up
                            + np.max(np.abs(bias_addend), initial=0.0))
        else:
            acc_shift_up = 1.0

        assert_exact_accumulation(acc_bound, self.name)
        self.accumulator_bound = acc_bound
        self.fits_int32 = acc_bound < INT32_ACCUMULATOR_LIMIT

        # Stage the activation / requantization chain.
        if self.internal is not None:
            internal_shift = common_fraction - self.internal.fraction
            act_fraction, act_divisor = self.internal.fraction, 1
            act_max_abs = self.internal.max_abs
        else:
            internal_shift = None
            act_fraction, act_divisor = common_fraction, divisor
            act_max_abs = acc_bound

        relu6_bound = (_relu6_bound(act_fraction, act_divisor, self.name)
                       if self.activation == "relu6" else None)

        if self.output_stage is not None:
            output_shift = act_fraction - self.output_stage.fraction
            out_meta = ValueMeta(fraction=self.output_stage.fraction, divisor=1,
                                 max_abs=self.output_stage.max_abs)
        else:
            output_shift = None
            out_meta = ValueMeta(fraction=act_fraction, divisor=act_divisor,
                                 max_abs=act_max_abs)
        return dict(acc_shift_up=acc_shift_up, bias_addend=bias_addend,
                    internal_shift=internal_shift, internal=self.internal,
                    divisor=divisor, activation=self.activation,
                    relu6_bound=relu6_bound, output_shift=output_shift,
                    output_stage=self.output_stage, out_meta=out_meta,
                    acc_bound=acc_bound)


def _run_compute_tail(acc: np.ndarray, out: np.ndarray, c: dict) -> None:
    """Bias add, 16-bit accumulator stage, activation and output shift."""
    if c["bias_addend"] is not None:
        if c["acc_shift_up"] != 1.0:
            np.multiply(acc, c["acc_shift_up"], out=acc)
        acc += c["bias_addend"]
    divisor = c["divisor"]
    if c["internal_shift"] is not None:
        stage = c["internal"]
        requantize_codes(acc, c["internal_shift"], stage.qmin, stage.qmax,
                         divisor=divisor, out=acc)
        divisor = 1
    _apply_activation(acc, c["activation"], c["relu6_bound"])
    if c["output_shift"] is not None:
        stage = c["output_stage"]
        requantize_codes(acc, c["output_shift"], stage.qmin, stage.qmax,
                         divisor=divisor, out=out)
    else:
        np.copyto(out, acc)


class _ConvStep(_ComputeStep):
    def __init__(self, name: str, inputs: list[str], layer: QuantizedConv2d, **kwargs) -> None:
        super().__init__(name, OpKind.QUANT_CONV, inputs, **kwargs)
        conv = layer.conv
        self.out_channels = conv.out_channels
        self.kernel_size = conv.kernel_size
        self.stride = conv.stride
        self.padding = conv.padding
        self.groups = conv.groups

    def bind(self, values, ctx):
        (x,) = values
        n, c_in, h, w = x.shape
        geometry = ConvGeometry.from_module(n, c_in, h, w, self.out_channels,
                                            self.kernel_size, self.stride, self.padding,
                                            self.groups)
        g = self.groups
        k = (c_in // g) * geometry.kernel[0] * geometry.kernel[1]
        image = np.empty(geometry.output_shape)
        constants = self._tail_constants(
            x.meta, k_per_output=k,
            weight_max_abs=int(np.max(np.abs(self.weight_codes), initial=0)),
        )
        if constants["bias_addend"] is not None:
            constants["bias_addend"] = constants["bias_addend"].reshape(1, -1, 1, 1)
        out = ctx.pool.acquire(geometry.output_shape)
        mode = ctx.accumulate

        if geometry.is_depthwise:
            weight = self.weight_codes.reshape(g, *geometry.kernel).astype(np.float64)
            probe = geometry.windows(np.zeros((n, c_in, h, w)))
            path = np.einsum_path("nchwij,cij->nchw", probe, weight, optimize=True)[0]

            class Bound(_BoundStep):
                def run(self, env):
                    depthwise_accumulate(geometry, env[self.input_slots[0]], weight,
                                         image, path, mode=mode)
                    _run_compute_tail(image, self.output, constants)
                    env[self.output_slot] = self.output
        else:
            weight_t = np.ascontiguousarray(
                self.weight_codes.reshape(g, self.out_channels // g, k)
                .transpose(0, 2, 1).astype(np.float64)
            )
            acc = np.empty((g, n * geometry.out_height * geometry.out_width,
                            self.out_channels // g))

            class Bound(_BoundStep):
                def run(self, env):
                    conv_accumulate(geometry, env[self.input_slots[0]], weight_t, acc,
                                    image, mode=mode)
                    _run_compute_tail(image, self.output, constants)
                    env[self.output_slot] = self.output

        return Bound, geometry.output_shape, constants["out_meta"], out


class _LinearStep(_ComputeStep):
    def __init__(self, name: str, inputs: list[str], layer: QuantizedLinear, **kwargs) -> None:
        super().__init__(name, OpKind.QUANT_LINEAR, inputs, **kwargs)
        self.out_features = layer.linear.out_features
        self.in_features = layer.linear.in_features

    def bind(self, values, ctx):
        (x,) = values
        if len(x.shape) != 2 or x.shape[1] != self.in_features:
            raise PlanError(f"{self.name}: expected input (N, {self.in_features}), "
                            f"got {x.shape}")
        n = x.shape[0]
        weight_t = np.ascontiguousarray(self.weight_codes.T.astype(np.float64))
        acc = np.empty((n, self.out_features))
        constants = self._tail_constants(
            x.meta, k_per_output=self.in_features,
            weight_max_abs=int(np.max(np.abs(self.weight_codes), initial=0)),
        )
        if constants["bias_addend"] is not None:
            constants["bias_addend"] = constants["bias_addend"].reshape(1, -1)
        out = ctx.pool.acquire((n, self.out_features))
        mode = ctx.accumulate

        class Bound(_BoundStep):
            def run(self, env):
                matmul_accumulate(env[self.input_slots[0]], weight_t, acc, mode=mode)
                _run_compute_tail(acc, self.output, constants)
                env[self.output_slot] = self.output

        return Bound, (n, self.out_features), constants["out_meta"], out


class _AddStep(_Step):
    def __init__(self, name: str, inputs: list[str], shared: QuantStage,
                 activation: str, output: QuantStage | None) -> None:
        super().__init__(name, OpKind.QUANT_ADD, inputs)
        self.shared = shared
        self.activation = activation
        self.output_stage = output

    def describe(self) -> str:
        out = (f"out→q{self.output_stage.bits} f={self.output_stage.fraction}"
               if self.output_stage else "no output stage")
        return f"merge f={self.shared.fraction}, {self.activation}, {out}"

    def bind(self, values, ctx):
        a, b = values
        if a.shape != b.shape:
            raise PlanError(f"{self.name}: eltwise-add inputs disagree on shape "
                            f"{a.shape} vs {b.shape}")
        shared, activation, output_stage = self.shared, self.activation, self.output_stage
        shifts = [(v.meta.fraction - shared.fraction, v.meta.divisor) for v in (a, b)]
        relu6_bound = (_relu6_bound(shared.fraction, 1, self.name)
                       if activation == "relu6" else None)
        scratch = ctx.scratch(("add_scratch",), a.shape)
        out = ctx.pool.acquire(a.shape)
        if output_stage is not None:
            output_shift = shared.fraction - output_stage.fraction
            meta = ValueMeta(fraction=output_stage.fraction, divisor=1,
                             max_abs=output_stage.max_abs)
        else:
            output_shift = None
            meta = ValueMeta(fraction=shared.fraction, divisor=1,
                             max_abs=2 * shared.max_abs)

        class Bound(_BoundStep):
            def run(self, env):
                requantize_codes(env[self.input_slots[0]], shifts[0][0], shared.qmin,
                                 shared.qmax, divisor=shifts[0][1], out=scratch)
                requantize_codes(env[self.input_slots[1]], shifts[1][0], shared.qmin,
                                 shared.qmax, divisor=shifts[1][1], out=self.output)
                np.add(scratch, self.output, out=self.output)
                _apply_activation(self.output, activation, relu6_bound)
                if output_shift is not None:
                    requantize_codes(self.output, output_shift, output_stage.qmin,
                                     output_stage.qmax, out=self.output)
                env[self.output_slot] = self.output

        return Bound, a.shape, meta, out


class _ConcatStep(_Step):
    def __init__(self, name: str, inputs: list[str], shared: QuantStage, axis: int) -> None:
        super().__init__(name, OpKind.QUANT_CONCAT, inputs)
        self.shared = shared
        self.axis = axis

    def describe(self) -> str:
        return f"merge f={self.shared.fraction}, axis={self.axis}"

    def bind(self, values, ctx):
        axis, shared = self.axis, self.shared
        base = list(values[0].shape)
        for v in values[1:]:
            other = list(v.shape)
            if other[:axis] + other[axis + 1:] != base[:axis] + base[axis + 1:]:
                raise PlanError(f"{self.name}: concat inputs disagree off-axis")
        sizes = [v.shape[axis] for v in values]
        out_shape = tuple(base[:axis] + [sum(sizes)] + base[axis + 1:])
        shifts = [(v.meta.fraction - shared.fraction, v.meta.divisor) for v in values]
        offsets = np.cumsum([0] + sizes)
        slices = [tuple([slice(None)] * axis + [slice(int(offsets[i]), int(offsets[i + 1]))])
                  for i in range(len(sizes))]
        out = ctx.pool.acquire(out_shape)
        meta = ValueMeta(fraction=shared.fraction, divisor=1, max_abs=shared.max_abs)

        class Bound(_BoundStep):
            def run(self, env):
                for slot, (shift, divisor), region in zip(self.input_slots, shifts, slices):
                    requantize_codes(env[slot], shift, shared.qmin, shared.qmax,
                                     divisor=divisor, out=self.output[region])
                env[self.output_slot] = self.output

        return Bound, out_shape, meta, out


class _LeakyReLUStep(_Step):
    def __init__(self, name: str, inputs: list[str], internal: QuantStage,
                 alpha_code: int, alpha_fraction: int, output: QuantStage | None) -> None:
        super().__init__(name, OpKind.QUANT_LEAKY_RELU, inputs)
        self.internal = internal
        self.alpha_code = alpha_code
        self.alpha_fraction = alpha_fraction
        self.output_stage = output

    def describe(self) -> str:
        return (f"alpha={self.alpha_code}·2^-{self.alpha_fraction}, "
                f"internal q{self.internal.bits} f={self.internal.fraction}")

    def bind(self, values, ctx):
        (x,) = values
        internal, output_stage = self.internal, self.output_stage
        alpha_code, alpha_fraction = float(self.alpha_code), self.alpha_fraction
        input_shift = x.meta.fraction - internal.fraction
        input_divisor = x.meta.divisor
        x16 = ctx.scratch(("leaky_x16",), x.shape)
        scaled = ctx.scratch(("leaky_scaled",), x.shape)
        out = ctx.pool.acquire(x.shape)
        if output_stage is not None:
            output_shift = internal.fraction - output_stage.fraction
            meta = ValueMeta(fraction=output_stage.fraction, divisor=1,
                             max_abs=output_stage.max_abs)
        else:
            output_shift = None
            meta = ValueMeta(fraction=internal.fraction, divisor=1,
                             max_abs=internal.max_abs)

        class Bound(_BoundStep):
            def run(self, env):
                requantize_codes(env[self.input_slots[0]], input_shift, internal.qmin,
                                 internal.qmax, divisor=input_divisor, out=x16)
                np.multiply(x16, alpha_code, out=scaled)
                requantize_codes(scaled, alpha_fraction, internal.qmin, internal.qmax,
                                 out=scaled)
                np.maximum(x16, scaled, out=scaled)
                if output_shift is not None:
                    requantize_codes(scaled, output_shift, output_stage.qmin,
                                     output_stage.qmax, out=self.output)
                else:
                    np.copyto(self.output, scaled)
                env[self.output_slot] = self.output

        return Bound, x.shape, meta, out


class _MaxPoolStep(_Step):
    def __init__(self, name: str, inputs: list[str], module: MaxPool2d) -> None:
        super().__init__(name, OpKind.MAXPOOL, inputs)
        self.kernel = _normalize_pair(module.kernel_size)
        self.stride = _normalize_pair(module.stride if module.stride is not None
                                      else module.kernel_size)
        self.padding = _normalize_pair(module.padding)

    def describe(self) -> str:
        return f"kernel={self.kernel}, stride={self.stride}"

    def bind(self, values, ctx):
        (x,) = values
        n, c, h, w = x.shape
        from ..autograd.conv import conv_output_size

        oh = conv_output_size(h, self.kernel[0], self.stride[0], self.padding[0])
        ow = conv_output_size(w, self.kernel[1], self.stride[1], self.padding[1])
        kernel, stride, padding = self.kernel, self.stride, self.padding
        (ph, pw), padded = padding, None
        if ph or pw:
            padded = ctx.scratch(("pool_padded", ph, pw, h, w),
                                 (n, c, h + 2 * ph, w + 2 * pw), zero=True)
        out_shape = (n, c, oh, ow)
        out = ctx.pool.acquire(out_shape)

        class Bound(_BoundStep):
            def run(self, env):
                max_pool_codes(env[self.input_slots[0]], kernel, stride, padding,
                               padded, self.output)
                env[self.output_slot] = self.output

        return Bound, out_shape, x.meta, out


class _GlobalAvgPoolStep(_Step):
    def __init__(self, name: str, inputs: list[str], keepdims: bool) -> None:
        super().__init__(name, OpKind.GLOBAL_AVGPOOL, inputs)
        self.keepdims = keepdims

    def describe(self) -> str:
        return "sum; divisor *= H*W"

    def bind(self, values, ctx):
        (x,) = values
        n, c, h, w = x.shape
        keepdims = self.keepdims
        out_shape = (n, c, 1, 1) if keepdims else (n, c)
        divisor = x.meta.divisor * h * w
        if divisor & (divisor - 1):
            # The fake-quant simulation rounds the mean *before* the next
            # layer accumulates while the engine divides *after*; the two
            # orders agree bit-for-bit only when the division is exact.
            raise PlanError(
                f"{self.name}: global-avgpool window {h}x{w} gives divisor {divisor}, "
                f"which is not a power of two — bit-exactness against the fake-quant "
                f"simulation cannot be guaranteed (use input sizes whose pooled "
                f"spatial extent is a power of two)"
            )
        out = ctx.pool.acquire(out_shape)
        meta = ValueMeta(fraction=x.meta.fraction, divisor=divisor,
                         max_abs=x.meta.max_abs * h * w)

        class Bound(_BoundStep):
            def run(self, env):
                np.sum(env[self.input_slots[0]], axis=(2, 3), keepdims=keepdims,
                       out=self.output)
                env[self.output_slot] = self.output

        return Bound, out_shape, meta, out


class _ActivationOnlyStep(_Step):
    """Standalone (unfused) ReLU / ReLU6 on codes."""

    def __init__(self, name: str, op: str, inputs: list[str]) -> None:
        super().__init__(name, op, inputs)

    def bind(self, values, ctx):
        (x,) = values
        bound = (_relu6_bound(x.meta.fraction, x.meta.divisor, self.name)
                 if self.op == OpKind.RELU6 else None)
        activation = "relu6" if self.op == OpKind.RELU6 else "relu"
        out = ctx.pool.acquire(x.shape)
        meta = ValueMeta(fraction=x.meta.fraction, divisor=x.meta.divisor,
                         max_abs=x.meta.max_abs)

        class Bound(_BoundStep):
            def run(self, env):
                np.copyto(self.output, env[self.input_slots[0]])
                _apply_activation(self.output, activation, bound)
                env[self.output_slot] = self.output

        return Bound, x.shape, meta, out


class _ReshapeStep(_Step):
    """Flatten / identity / dropout: a view over the producer's storage."""

    alias = True

    def __init__(self, name: str, op: str, inputs: list[str], start_dim: int | None) -> None:
        super().__init__(name, op, inputs)
        self.start_dim = start_dim  # None = identity

    def describe(self) -> str:
        return "view" if self.start_dim is None else f"flatten(start_dim={self.start_dim})"

    def bind(self, values, ctx):
        (x,) = values
        if self.start_dim is None:
            out_shape = x.shape
        else:
            lead = x.shape[:self.start_dim]
            tail = int(np.prod(x.shape[self.start_dim:], dtype=np.int64)) \
                if len(x.shape) > self.start_dim else 1
            out_shape = tuple(lead) + (tail,)
        shape = out_shape

        class Bound(_BoundStep):
            def run(self, env):
                env[self.output_slot] = env[self.input_slots[0]].reshape(shape)

        return Bound, out_shape, x.meta, None


# ---------------------------------------------------------------------- #
# Lowering
# ---------------------------------------------------------------------- #
def _lower_conv(node: Node) -> _Step:
    layer = node.module
    weight_quant = _require_tqt(layer.weight_quantizer, f"{node.name}.weight")
    weight_codes = weight_quant.quantize_to_integers(layer.conv.weight.data).astype(
        code_dtype(weight_quant.config.bits))
    kwargs = _compute_kwargs(node, layer, layer.conv.bias, layer.bias_quantizer,
                             layer.internal_quantizer)
    return _ConvStep(node.name, list(node.inputs), layer,
                     weight_codes=weight_codes,
                     weight_fraction=_stage_from(weight_quant).fraction, **kwargs)


def _lower_linear(node: Node) -> _Step:
    layer = node.module
    weight_quant = _require_tqt(layer.weight_quantizer, f"{node.name}.weight")
    weight_codes = weight_quant.quantize_to_integers(layer.linear.weight.data).astype(
        code_dtype(weight_quant.config.bits))
    kwargs = _compute_kwargs(node, layer, layer.linear.bias, layer.bias_quantizer, None)
    return _LinearStep(node.name, list(node.inputs), layer,
                       weight_codes=weight_codes,
                       weight_fraction=_stage_from(weight_quant).fraction, **kwargs)


def _compute_kwargs(node: Node, layer, bias, bias_quantizer, internal_quantizer) -> dict:
    bias_codes = None
    bias_fraction = 0
    if bias is not None:
        if bias_quantizer is None:
            raise PlanError(f"{node.name}: float bias without a bias quantizer cannot "
                            f"be lowered to integer arithmetic")
        bias_quant = _require_tqt(bias_quantizer, f"{node.name}.bias")
        codes = bias_quant.quantize_to_integers(bias.data)
        if np.any(codes):
            bias_codes = codes.astype(np.int64)
            bias_fraction = _stage_from(bias_quant).fraction
    return dict(
        bias_codes=bias_codes,
        bias_fraction=bias_fraction,
        internal=_internal_stage(internal_quantizer, f"{node.name}.acc"),
        activation=layer.activation,
        output=_output_stage(layer.output_quantizer, f"{node.name}.out"),
    )


def _lower_node(node: Node) -> _Step | None:
    module = node.module
    if node.op == OpKind.QUANTIZE:
        if not isinstance(module, QuantizedInput):
            raise PlanError(f"{node.name}: quantize node without a QuantizedInput module")
        stage = _output_stage(module.quantizer, f"{node.name}.in")
        if stage is None:
            raise PlanError(f"{node.name}: bypassed input quantizer cannot be lowered")
        return _QuantizeInputStep(node.name, list(node.inputs), stage)
    if node.op == OpKind.QUANT_CONV and isinstance(module, QuantizedConv2d):
        return _lower_conv(node)
    if node.op == OpKind.QUANT_LINEAR and isinstance(module, QuantizedLinear):
        return _lower_linear(node)
    if node.op == OpKind.QUANT_ADD and isinstance(module, QuantizedAdd):
        shared = _output_stage(module.input_quantizer, f"{node.name}.in")
        if shared is None:
            raise PlanError(f"{node.name}: bypassed add input quantizer")
        return _AddStep(node.name, list(node.inputs), shared, module.activation,
                        _output_stage(module.output_quantizer, f"{node.name}.out"))
    if node.op == OpKind.QUANT_CONCAT and isinstance(module, QuantizedConcat):
        shared = _output_stage(module.input_quantizer, f"{node.name}.in")
        if shared is None:
            raise PlanError(f"{node.name}: bypassed concat input quantizer")
        return _ConcatStep(node.name, list(node.inputs), shared, module.axis)
    if node.op == OpKind.QUANT_LEAKY_RELU and isinstance(module, QuantizedLeakyReLU):
        internal = _output_stage(module.internal_quantizer, f"{node.name}.internal")
        if internal is None:
            raise PlanError(f"{node.name}: bypassed leaky-relu internal quantizer")
        alpha_quant = _require_tqt(module.alpha_quantizer, f"{node.name}.alpha")
        alpha_code = int(alpha_quant.quantize_to_integers(module.alpha.data))
        return _LeakyReLUStep(node.name, list(node.inputs), internal, alpha_code,
                              _stage_from(alpha_quant).fraction,
                              _output_stage(module.output_quantizer, f"{node.name}.out"))
    if node.op == OpKind.MAXPOOL and isinstance(module, MaxPool2d):
        return _MaxPoolStep(node.name, list(node.inputs), module)
    if node.op == OpKind.GLOBAL_AVGPOOL and isinstance(module, GlobalAvgPool2d):
        return _GlobalAvgPoolStep(node.name, list(node.inputs), module.keepdims)
    if node.op == OpKind.FLATTEN:
        start_dim = node.attrs.get("start_dim", 1)
        if module is not None:
            start_dim = getattr(module, "start_dim", start_dim)
        return _ReshapeStep(node.name, node.op, list(node.inputs), start_dim)
    if node.op in OpKind.PASSTHROUGH_KINDS:
        return _ReshapeStep(node.name, node.op, list(node.inputs), None)
    if node.op in (OpKind.RELU, OpKind.RELU6):
        return _ActivationOnlyStep(node.name, node.op, list(node.inputs))
    raise PlanError(
        f"node {node.name!r} of kind {node.op!r} cannot be lowered to the integer "
        f"engine; run the optimization transforms and the quantization pass first"
    )


def lower_graph(graph: GraphIR) -> "ExecutionPlan":
    """Lower a quantized graph into a symbolic integer execution plan."""
    PIPELINE_COUNTERS.lowerings += 1
    graph.validate()
    if len(graph.input_names) != 1:
        raise PlanError("the engine lowers single-input graphs only")
    steps: list[_Step] = []
    for node in graph.topological_order():
        if node.op == OpKind.INPUT:
            continue
        steps.append(_lower_node(node))
    return ExecutionPlan(graph_name=graph.graph_name, input_name=graph.input_names[0],
                         output_name=graph.output_name, steps=steps)


# ---------------------------------------------------------------------- #
# Profiling
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class StepTiming:
    """Mean wall time of one plan step (or tape instruction) inside a
    profiled forward pass."""

    name: str
    op: str                      # plan op, or the instruction kind on a tape
    mean_ms: float
    share: float                 # fraction of the total per-pass time
    variant: str | None = None   # chosen kernel variant of a tunable tape group


@dataclass(frozen=True)
class PlanProfile:
    """Per-step (or per-instruction) timing breakdown of a compiled engine
    (``engine.profile()``)."""

    graph_name: str
    input_shape: tuple[int, ...]
    repeats: int
    steps: list[StepTiming]
    total_ms: float

    def table(self) -> str:
        lines = [f"Plan profile {self.graph_name!r} — input {self.input_shape}, "
                 f"{self.repeats} passes, {self.total_ms:.3f} ms/pass"]
        for timing in self.steps:
            variant = f" [{timing.variant}]" if timing.variant else ""
            lines.append(f"  {timing.name:<40s} {timing.op:<18s} "
                         f"{timing.mean_ms:8.3f} ms  {100 * timing.share:5.1f}%{variant}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "graph": self.graph_name,
            "input_shape": list(self.input_shape),
            "repeats": self.repeats,
            "total_ms": self.total_ms,
            "steps": [{"name": t.name, "op": t.op, "mean_ms": t.mean_ms,
                       "share": t.share, "variant": t.variant} for t in self.steps],
        }


# ---------------------------------------------------------------------- #
# The plan and its compiled form
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class EngineOutput:
    """Integer result of one engine forward pass."""

    codes: np.ndarray          # int32 codes (int64 when a bypassed final stage overflows it)
    fraction: int
    divisor: int

    def dequantize(self) -> np.ndarray:
        """Real-domain values ``codes * 2^-fraction / divisor``."""
        return self.codes.astype(np.float64) * (2.0 ** -self.fraction) / self.divisor


@dataclass
class ExecutionPlan:
    """A linearized integer inference program over graph nodes."""

    graph_name: str
    input_name: str
    output_name: str
    steps: list = field(default_factory=list)

    def bind(self, input_shape: tuple[int, ...], accumulate: str = "blas",
             mode: str = "steps", fuse: bool = True) -> "CompiledEngine":
        """Bind the plan to a concrete input shape.

        Infers shapes and value metadata, stages weights for the requested
        accumulation backend (``"blas"`` exact float64 lanes or ``"int"``
        pure int64), verifies accumulator ranges, and assigns every step an
        output buffer with linear-scan reuse.

        Each plan has exactly one executor.  A reference plan runs only on
        the step interpreter (``mode="steps"``) — with ``accumulate="int"``
        the oracle every optimized tape is checked against — so
        ``mode="tape"`` raises :class:`ValueError`: the tape executes an
        :class:`~repro.engine.optimizer.OptimizedPlan` (compile with
        ``optimize=True``), whose ``bind`` in turn accepts only
        ``mode="tape"``.  ``fuse`` only concerns the tape and is ignored here.
        """
        if accumulate not in ("blas", "int"):
            raise ValueError(f"unknown accumulation mode {accumulate!r}")
        if mode != "steps":
            raise ValueError(f"a reference plan executes only on the step interpreter "
                             f"(mode='steps'), got mode={mode!r}; the tape executes "
                             f"optimized plans — compile with optimize=True")
        return self._bind(tuple(int(s) for s in input_shape), accumulate, mode, fuse,
                          _BufferPool())

    def _bind(self, input_shape: tuple[int, ...], accumulate: str, mode: str,
              fuse: bool, pool: _BufferPool) -> "CompiledEngine":
        ctx = _BindContext(pool, accumulate)

        slots = {self.input_name: 0}
        for i, step in enumerate(self.steps):
            slots[step.name] = i + 1
        # Last step index at which each storage key is read (storage keys
        # collapse alias chains so views keep their base buffer alive).
        storage_key = {self.input_name: 0}
        for i, step in enumerate(self.steps):
            key = i + 1
            if step.alias:
                key = storage_key[step.inputs[0]]
            storage_key[step.name] = key
        last_use: dict[int, int] = {storage_key[self.output_name]: len(self.steps)}
        for i, step in enumerate(self.steps):
            for name in step.inputs:
                key = storage_key[name]
                last_use[key] = max(last_use.get(key, -1), i) \
                    if key != storage_key[self.output_name] else len(self.steps)

        values: dict[str, _BoundValue] = {
            self.input_name: _BoundValue(slot=0, shape=input_shape,
                                         meta=ValueMeta(fraction=0, divisor=1, max_abs=0))
        }
        buffers: dict[int, np.ndarray] = {}
        bound_steps: list[_BoundStep] = []
        for i, step in enumerate(self.steps):
            inputs = [values[name] for name in step.inputs]
            bound_cls, out_shape, out_meta, out_buffer = step.bind(inputs, ctx)
            key = storage_key[step.name]
            if out_buffer is not None:
                buffers[key] = out_buffer
            bound = bound_cls(step, [v.slot for v in inputs], slots[step.name], out_buffer)
            # Bind-time metadata for the tape compiler (and introspection):
            # the value shapes/metas the binder inferred for this step.
            bound.in_shapes = [v.shape for v in inputs]
            bound.in_metas = [v.meta for v in inputs]
            bound.out_shape = out_shape
            bound.out_meta = out_meta
            bound_steps.append(bound)
            values[step.name] = _BoundValue(slot=slots[step.name], shape=out_shape,
                                            meta=out_meta)
            for k, last in list(last_use.items()):
                if last == i and k in buffers:
                    pool.release(buffers.pop(k))
        output_value = values[self.output_name]
        engine = CompiledEngine(plan=self, steps=bound_steps, input_shape=input_shape,
                                output_slot=output_value.slot, output_shape=output_value.shape,
                                output_meta=output_value.meta, slot_count=len(self.steps) + 1,
                                pool=pool, accumulate=accumulate, mode=mode)
        if mode == "tape":
            # Compile (and, on an optimized plan's first bind, autotune) the
            # tape eagerly: serving never pays it mid-stream.
            from .program import compile_tape
            engine.tape = compile_tape(engine, fuse=fuse)
        return engine

    def profile(self, input_shape: tuple[int, ...], accumulate: str = "blas",
                repeats: int = 5, x: np.ndarray | None = None) -> PlanProfile:
        """Bind the plan and return its executor's timing breakdown.

        Convenience wrapper over :meth:`CompiledEngine.profile`; reuse an
        existing engine's ``profile()`` to avoid the throwaway bind.
        """
        return self.bind(input_shape, accumulate=accumulate).profile(x=x, repeats=repeats)

    # ------------------------------------------------------------------ #
    def summary(self) -> str:
        """Human-readable plan listing, one step per line."""
        lines = [f"ExecutionPlan {self.graph_name!r} ({len(self.steps)} steps)"]
        for step in self.steps:
            lines.append(f"  {step.name:<40s} {step.op:<18s} {step.describe()}")
        return "\n".join(lines)

    def manifest(self) -> dict:
        """Machine-readable plan description (JSON-serializable)."""
        layers = []
        weight_bytes = 0
        for step in self.steps:
            entry: dict = {"name": step.name, "op": step.op, "detail": step.describe()}
            if isinstance(step, _ComputeStep):
                entry.update({
                    "weight_dtype": str(step.weight_codes.dtype),
                    "weight_shape": list(step.weight_codes.shape),
                    "weight_fraction": step.weight_fraction,
                    "has_bias": step.bias_codes is not None,
                    "accumulator_bound": step.accumulator_bound,
                    "fits_int32_accumulator": step.fits_int32,
                })
                weight_bytes += step.weight_codes.nbytes
            layers.append(entry)
        return {
            "graph": self.graph_name,
            "steps": layers,
            "weight_bytes": weight_bytes,
            "int32_mac_compatible": all(layer.get("fits_int32_accumulator", True)
                                        for layer in layers),
        }


class CompiledEngine:
    """A bound, executable integer inference plan."""

    def __init__(self, plan: ExecutionPlan, steps: list[_BoundStep],
                 input_shape: tuple[int, ...], output_slot: int,
                 output_shape: tuple[int, ...], output_meta: ValueMeta,
                 slot_count: int, pool: _BufferPool, accumulate: str,
                 mode: str = "steps") -> None:
        self.plan = plan
        self.steps = steps
        self.input_shape = input_shape
        self.output_slot = output_slot
        self.output_shape = output_shape
        self.output_meta = output_meta
        self.accumulate = accumulate
        self.mode = mode
        self.buffers_created = pool.buffers_created
        self.buffer_bytes = pool.bytes_created
        self._pool = pool
        #: sibling engines at every power of two below the batch, ascending
        #: (bound by an optimized plan's ``bind``; see :meth:`run_partial`)
        self._buckets: list[CompiledEngine] = []
        #: dtype of the float staging/input buffers (the integer codes ride
        #: in exact float64 lanes); callers staging requests should match it.
        self.input_dtype = np.dtype(np.float64)
        self._env: list = [None] * slot_count
        #: the compiled instruction program of a tape-mode engine, built at
        #: bind (see :mod:`repro.engine.program`); ``None`` in steps mode
        self.tape = None
        # int32 covers every quantized output stage; a bypassed final stage
        # can carry raw accumulator codes, which need the wider dtype.
        self._codes_dtype = (np.int64 if output_meta.max_abs > np.iinfo(np.int32).max
                             else np.int32)

    @property
    def batch_size(self) -> int:
        return self.input_shape[0]

    def _check_input(self, x: np.ndarray, partial: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if partial:
            if x.ndim != 4 or x.shape[1:] != self.input_shape[1:]:
                expected = ", ".join(str(s) for s in self.input_shape[1:])
                raise ValueError(f"expected images shaped (fill, {expected}), "
                                 f"got {x.shape}")
            if not 1 <= x.shape[0] <= self.batch_size:
                raise ValueError(f"fill must be in [1, {self.batch_size}], "
                                 f"got {x.shape[0]}")
        elif x.shape != self.input_shape:
            raise ValueError(f"engine is bound to input shape {self.input_shape}, "
                             f"got {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("engine inputs must be finite; got NaN or Inf values "
                             "(quantization codes for non-finite inputs are undefined)")
        return x

    def run(self, x: np.ndarray) -> EngineOutput:
        """Execute the plan on a float input batch, returning integer codes.

        An optimized plan's engine executes its tape: a flat list of
        prebound kernel calls over a preallocated buffer arena, bit-exact
        with the reference plan's step interpreter.  The returned codes are
        a fresh array; internal buffers are reused across calls and must not
        leak to callers.
        """
        x = self._check_input(x)
        if self.mode == "tape":
            return self._run_tape(x)
        return self.run_steps(x, _checked=True)

    def _run_tape(self, images: np.ndarray) -> EngineOutput:
        """Stage ``fill <= batch_size`` checked images into the tape's input
        buffer, zero the padding rows, execute, and copy out ``fill`` rows."""
        fill = images.shape[0]
        tape = self.tape
        tape.input_buffer[:fill] = images
        tape.input_buffer[fill:] = 0.0
        tape.execute()
        codes = tape.output_array[:fill].astype(self._codes_dtype)
        return EngineOutput(codes=codes, fraction=self.output_meta.fraction,
                            divisor=self.output_meta.divisor)

    def run_steps(self, x: np.ndarray, _checked: bool = False) -> EngineOutput:
        """Execute through the per-step interpreter (the reference path)."""
        if not _checked:
            x = self._check_input(x)
        env = self._env
        env[0] = x  # steps only read the input; no defensive copy needed
        for step in self.steps:
            step.run(env)
        codes = env[self.output_slot].astype(self._codes_dtype)
        return EngineOutput(codes=codes, fraction=self.output_meta.fraction,
                            divisor=self.output_meta.divisor)

    def profile(self, x: np.ndarray | None = None, repeats: int = 5,
                warmup: int = 1, level: str | None = None) -> PlanProfile:
        """Wall-time breakdown of the executor this engine runs.

        A tape-mode engine reports its tape: one row per instruction (fused
        elementwise chains are single ``chain`` rows), each carrying the
        kernel variant its tunable group resolved to — what the wall clock
        really pays per pass.  A steps-mode engine reports one row per plan
        step, executed in plan order on the real environment.  ``level``
        (``"tape"`` | ``"steps"``) may only name the engine's own executor:
        the tape runs optimized plans, the step interpreter reference plans.
        """
        level = self.mode if level is None else level
        if level not in ("steps", "tape"):
            raise ValueError(f"level must be 'steps' or 'tape', got {level!r}")
        if x is None:
            x = np.zeros(self.input_shape)
        x = self._check_input(x)
        if level == "tape":
            tape = self.tape
            if tape is None:
                raise ValueError("level='tape' requires a tape-mode engine "
                                 "(an optimized plan: compile with optimize=True)")
            np.copyto(tape.input_buffer, x)
            choices = tape.choices()
            rows = [(name, kind, seconds, choices.get(name))
                    for name, kind, seconds in tape.profile(repeats=repeats)]
        else:
            env = self._env
            totals = [0.0] * len(self.steps)
            for pass_index in range(warmup + repeats):
                env[0] = x
                for i, step in enumerate(self.steps):
                    start = time.perf_counter()
                    step.run(env)
                    elapsed = time.perf_counter() - start
                    if pass_index >= warmup:
                        totals[i] += elapsed
            rows = [(bound.step.name, bound.step.op, t / repeats, None)
                    for bound, t in zip(self.steps, totals)]
        total = sum(seconds for _, _, seconds, _ in rows) or 1.0
        timings = [StepTiming(name=name, op=op, mean_ms=seconds * 1e3,
                              share=seconds / total, variant=variant)
                   for name, op, seconds, variant in rows]
        return PlanProfile(graph_name=self.plan.graph_name, input_shape=self.input_shape,
                           repeats=repeats, steps=timings,
                           total_ms=sum(t.mean_ms for t in timings))

    def run_partial(self, images: np.ndarray) -> EngineOutput:
        """Execute a partially filled batch of ``1 <= fill <= batch_size`` images.

        A tape engine bound from an optimized plan at batch ``B > 1`` carries
        bucket engines at every power of two below ``B`` (bound in the same
        ``plan.bind``, over views of this engine's arena).  The fill runs on
        the smallest of them — or this engine — that holds it, zero-padded
        only up to that bucket, so a partial batch costs about what its
        bucket costs, not ``B``.  Every plan op is per-sample independent,
        so the padding rows never influence the real rows: the codes, sliced
        to the true fill, are bit-identical whichever bucket runs.
        """
        images = self._check_input(images, partial=True)
        fill = images.shape[0]
        if self.mode == "tape":
            engine = next((e for e in self._buckets if e.batch_size >= fill), self)
            return engine._run_tape(images)
        staging = np.zeros(self.input_shape, dtype=self.input_dtype)
        staging[:fill] = images
        out = self.run_steps(staging, _checked=True)
        return EngineOutput(codes=out.codes[:fill], fraction=out.fraction,
                            divisor=out.divisor)
