"""Integer convolution / matmul kernels for the inference engine.

The engine executes quantized graphs on integer *codes*: every activation
tensor is a grid of small integers (int8/int16 range) and every layer is an
integer multiply-accumulate followed by a power-of-2 requantization shift
(Eq. 16 of the paper).  Two accumulation backends are provided:

* ``"blas"`` (default) — the codes are staged in float64 lanes and the
  multiply-accumulate runs through BLAS ``dgemm``.  Because every operand is
  an integer and every accumulator provably stays below 2^53, the float64
  arithmetic is *exact* integer arithmetic; this is the standard trick for
  getting vectorized exact integer GEMM out of hardware whose fast path is
  floating point.  :func:`assert_exact_accumulation` verifies the bound at
  plan-bind time.
* ``"int"`` — a pure ``int64`` einsum reference path.  Bit-identical to the
  BLAS path (the parity tests assert this) and closer to what an int32-MAC
  accelerator executes, but slower because NumPy has no BLAS for integers.

Padded inputs and accumulators are preallocated at plan-bind time (the
reference path's im2col columns on their first fill) and reused across
batches, so the steady-state hot path performs no allocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..autograd.conv import conv_output_size

__all__ = [
    "EXACT_ACCUMULATOR_LIMIT",
    "FLOAT32_ACCUMULATOR_LIMIT",
    "INT32_ACCUMULATOR_LIMIT",
    "ConvGeometry",
    "StackedShiftGeometry",
    "assert_exact_accumulation",
    "conv_accumulate",
    "depthwise_accumulate",
    "matmul_accumulate",
    "max_pool_codes",
    "max_pool_codes_reference",
    "pack_stacked_weights",
    "pack_stacked_depthwise_weights",
    "pointwise_accumulate",
]

# float64 integer lanes are exact up to 2^53; int32 MAC hardware up to 2^31.
EXACT_ACCUMULATOR_LIMIT = 2 ** 53
INT32_ACCUMULATOR_LIMIT = 2 ** 31
# float32 integer lanes are exact up to 2^24 — steps whose worst-case
# accumulator provably stays below this can run in float32 (half the memory
# traffic, sgemm instead of dgemm) and remain bit-exact.  The optimizer
# binds a step's float32 lane only when this bound proves it exact.
FLOAT32_ACCUMULATOR_LIMIT = 2 ** 24


def assert_exact_accumulation(bound: int, where: str) -> None:
    """Refuse to build a plan whose worst-case accumulator could round."""
    if bound >= EXACT_ACCUMULATOR_LIMIT:
        raise ValueError(
            f"{where}: worst-case accumulator magnitude {bound} exceeds the exact "
            f"float64 integer range (2^53); the BLAS accumulation path would round"
        )


def _normalize_pair(value) -> tuple[int, int]:
    if isinstance(value, (tuple, list)):
        return int(value[0]), int(value[1])
    return int(value), int(value)


@dataclass
class ConvGeometry:
    """Bound im2col geometry for one convolution step.

    Owns the padded-input staging and the im2col column buffer and knows
    how to fill them from an NCHW code tensor.
    """

    batch: int
    in_channels: int
    height: int
    width: int
    out_channels: int
    kernel: tuple[int, int]
    stride: tuple[int, int]
    padding: tuple[int, int]
    groups: int
    #: lane dtype of the staging buffers; float32 is only exact below 2^24
    #: and must be gated by the caller (see FLOAT32_ACCUMULATOR_LIMIT).
    dtype: object = np.float64
    #: optional ``scratch(key, shape, dtype, zero) -> ndarray`` provider that
    #: lets the binder share staging buffers across steps (sequential
    #: execution only).  ``None`` allocates private buffers.
    scratch: object = None
    out_height: int = field(init=False)
    out_width: int = field(init=False)
    _padded: np.ndarray | None = field(init=False, default=None)
    #: im2col columns, allocated by the first :meth:`fill_columns` — only the
    #: reference ``conv_accumulate`` path materializes them
    _cols: np.ndarray | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        kh, kw = self.kernel
        self.dtype = np.dtype(self.dtype)
        self.out_height = conv_output_size(self.height, kh, self.stride[0], self.padding[0])
        self.out_width = conv_output_size(self.width, kw, self.stride[1], self.padding[1])
        ph, pw = self.padding
        if ph or pw or self.dtype != np.float64:
            # Padding needs a zero-bordered staging copy; non-float64 lanes
            # need a cast staging copy even without padding.
            padded_shape = (self.batch, self.in_channels,
                            self.height + 2 * ph, self.width + 2 * pw)
            if self.scratch is not None:
                # The zeroed border survives sharing only between steps that
                # overwrite the same interior, hence the geometry in the key.
                self._padded = self.scratch(
                    ("conv_padded", ph, pw, self.height, self.width),
                    padded_shape, self.dtype, bool(ph or pw))
            else:
                self._padded = np.zeros(padded_shape, dtype=self.dtype)

    @classmethod
    def from_module(cls, batch: int, in_channels: int, height: int, width: int,
                    out_channels: int, kernel_size, stride, padding, groups: int,
                    dtype=np.float64, scratch=None) -> "ConvGeometry":
        return cls(batch=batch, in_channels=in_channels, height=height, width=width,
                   out_channels=out_channels, kernel=_normalize_pair(kernel_size),
                   stride=_normalize_pair(stride), padding=_normalize_pair(padding),
                   groups=int(groups), dtype=dtype, scratch=scratch)

    @property
    def output_shape(self) -> tuple[int, int, int, int]:
        return (self.batch, self.out_channels, self.out_height, self.out_width)

    @property
    def is_depthwise(self) -> bool:
        """One filter per channel: groups == C_in == C_out."""
        return self.groups == self.in_channels == self.out_channels

    def windows(self, x: np.ndarray) -> np.ndarray:
        """Strided ``(N, C, OH, OW, KH, KW)`` window view over the padded input."""
        kh, kw = self.kernel
        sh, sw = self.stride
        ph, pw = self.padding
        src = x
        if self._padded is not None:
            self._padded[:, :, ph:ph + self.height, pw:pw + self.width] = x
            src = self._padded
        return sliding_window_view(src, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]

    def fill_columns(self, x: np.ndarray) -> np.ndarray:
        """im2col ``x`` (N, C, H, W) into the preallocated column buffer.

        Returns the buffer shaped ``(groups, N*OH*OW, Cg*KH*KW)`` with the K
        axis ordered ``(channel-in-group, kh, kw)`` to match the weight
        matrix layout.
        """
        kh, kw = self.kernel
        windows = self.windows(x)
        # windows: (N, C, OH, OW, KH, KW) view; split C into (G, Cg) and move
        # the group axis out front, then fuse transpose+cast into one copy.
        g = self.groups
        cg = self.in_channels // g
        if self._cols is None:
            self._cols = np.empty((g, self.batch * self.out_height * self.out_width,
                                   cg * kh * kw), dtype=self.dtype)
        view = windows.reshape(self.batch, g, cg, self.out_height, self.out_width, kh, kw)
        view = view.transpose(1, 0, 3, 4, 2, 5, 6)
        np.copyto(
            self._cols.reshape(g, self.batch, self.out_height, self.out_width, cg, kh, kw),
            view,
        )
        return self._cols


def depthwise_accumulate(geometry: ConvGeometry, x: np.ndarray, weight: np.ndarray,
                         image: np.ndarray, path, mode: str = "blas") -> np.ndarray:
    """Depthwise convolution directly over the strided window view.

    Contracting the ``(N, C, OH, OW, KH, KW)`` view against per-channel
    ``(C, KH, KW)`` filters with a precomputed einsum path skips both the
    im2col materialization and the group-major accumulator transpose, which
    makes this the fastest exact path for the MobileNet depthwise blocks.
    """
    windows = geometry.windows(x)
    if mode == "int":
        image[...] = np.einsum("nchwij,cij->nchw", windows.astype(np.int64),
                               weight.astype(np.int64), optimize=True)
    else:
        np.einsum("nchwij,cij->nchw", windows, weight, out=image, optimize=path)
    return image


def conv_accumulate(geometry: ConvGeometry, x: np.ndarray, weight_t: np.ndarray,
                    acc: np.ndarray, image: np.ndarray, mode: str = "blas") -> np.ndarray:
    """Integer convolution accumulation into the preallocated buffers.

    Parameters
    ----------
    x: input codes ``(N, C_in, H, W)`` in float64 lanes.
    weight_t: weight codes ``(G, K, O)`` (float64 lanes), K ordered
        ``(channel-in-group, kh, kw)``.
    acc: accumulator buffer ``(G, N*OH*OW, O)``.
    image: output-image buffer ``(N, C_out, OH, OW)`` the accumulator is
        transposed into.
    mode: ``"blas"`` for the exact float64 dgemm path, ``"int"`` for the pure
        int64 einsum reference.
    """
    cols = geometry.fill_columns(x)
    if mode == "int":
        acc[...] = np.einsum("gmk,gko->gmo", cols.astype(np.int64),
                             weight_t.astype(np.int64), optimize=True)
    else:
        np.matmul(cols, weight_t, out=acc)
    g = geometry.groups
    o = geometry.out_channels // g
    acc_view = acc.reshape(g, geometry.batch, geometry.out_height, geometry.out_width, o)
    np.copyto(
        image.reshape(geometry.batch, g, o, geometry.out_height, geometry.out_width),
        acc_view.transpose(1, 0, 4, 2, 3),
    )
    return image


def pointwise_accumulate(x: np.ndarray, weight: np.ndarray, acc: np.ndarray,
                         staging: np.ndarray | None = None,
                         subsample: tuple[int, int] | None = None) -> np.ndarray:
    """1x1 convolution as a direct channel-axis GEMM — no im2col.

    A pointwise (1x1, ungrouped, unpadded) convolution is ``weight (O, C)``
    contracted against the channel axis of ``x (N, C, H, W)``; the batched
    matmul ``weight @ x.reshape(N, C, H*W)`` produces the output image in
    NCHW order directly, so both the im2col column copy and the
    group-major accumulator transpose disappear.

    Parameters
    ----------
    x: input codes ``(N, C, H, W)`` in float64 lanes.
    weight: weight codes ``(O, C)`` in the accumulator's lane dtype.
    acc: accumulator ``(N, O, OH*OW)``; an ``out.reshape`` view of the NCHW
        output buffer when the epilogue runs in the same lanes.
    staging: optional ``(N, C, OH, OW)`` staging buffer — required to avoid
        per-call allocation when ``subsample`` is set (the strided view
        cannot be reshaped in place) or when the lanes are float32 (cast).
    subsample: optional ``(sh, sw)`` spatial stride of the 1x1 conv.
    """
    n, c = x.shape[:2]
    if subsample is not None:
        sh, sw = subsample
        x = x[:, :, ::sh, ::sw]
    if staging is not None:
        np.copyto(staging, x)
        x = staging
    np.matmul(weight, x.reshape(n, c, x.shape[2] * x.shape[3]), out=acc)
    return acc


def matmul_accumulate(x: np.ndarray, weight_t: np.ndarray, acc: np.ndarray,
                      mode: str = "blas") -> np.ndarray:
    """Integer matmul accumulation ``x (N, F) @ weight_t (F, O)`` into ``acc``."""
    if mode == "int":
        acc[...] = x.astype(np.int64) @ weight_t.astype(np.int64)
    else:
        np.matmul(x, weight_t, out=acc)
    return acc


class StackedShiftGeometry:
    """Shift-stacked im2col: the ``KH*KW`` kernel-offset slices of the padded
    input stacked along the channel axis.

    The classic im2col column layout interleaves ``(channel, kh, kw)`` along
    the K axis, which makes the staging copy a transposed scatter — the
    dominant cost of an im2col GEMM at small feature-map sizes.  Stacking the
    offsets *channel-block-wise* instead (K ordered ``(kh, kw, channel)``)
    turns the staging into ``KH*KW`` same-layout strided slice copies, each
    nearly as cheap as the padded-input fill, and the GEMM
    ``W (O, KH*KW*C) @ stack (N, KH*KW*C, OH*OW)`` writes the NCHW output
    directly — no accumulator transpose.  Ungrouped convolutions only; the
    arithmetic is the exact integer arithmetic of the other backends (same
    accumulator bounds apply).

    The stack buffer's zero border (output positions whose windows overhang
    the input) is written once at allocation and relied upon across calls,
    so the buffer must never be recycled storage — allocate it fresh.  An
    engine passes its arena as ``alloc(shape, dtype, zero_key=...)``; the
    key names the geometry that fixes where the border sits.
    """

    def __init__(self, batch: int, in_channels: int, height: int, width: int,
                 kernel: tuple[int, int], stride: tuple[int, int],
                 padding: tuple[int, int], dtype=np.float64, alloc=None) -> None:
        self.batch = batch
        self.in_channels = in_channels
        self.height = height
        self.width = width
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        self.dtype = np.dtype(dtype)
        kh, kw = kernel
        self.out_height = conv_output_size(height, kh, stride[0], padding[0])
        self.out_width = conv_output_size(width, kw, stride[1], padding[1])
        shape = (batch, kh * kw * in_channels, self.out_height, self.out_width)
        self.stack = (np.zeros(shape, self.dtype) if alloc is None else alloc(
            shape, self.dtype, zero_key=("stack", height, width, kernel, stride, padding)))
        # Per-offset copy plan: destination channel block plus the matching
        # (input-range, output-range) slices with padding overhang clipped,
        # so no separate padded staging copy is needed.
        self._copies: list[tuple] = []
        ph, pw = padding
        sh, sw = stride
        for i in range(kh):
            for j in range(kw):
                k = i * kw + j
                dst = self.stack[:, k * in_channels:(k + 1) * in_channels]
                # Output position o reads input row i + o*sh - ph; clip the
                # o-range so the input index stays inside [0, height).
                o_lo_h = max(0, -(-(ph - i) // sh))          # ceil((ph-i)/sh)
                o_hi_h = min(self.out_height, (height - 1 - i + ph) // sh + 1)
                o_lo_w = max(0, -(-(pw - j) // sw))
                o_hi_w = min(self.out_width, (width - 1 - j + pw) // sw + 1)
                if o_lo_h >= o_hi_h or o_lo_w >= o_hi_w:
                    continue
                in_h = slice(i + o_lo_h * sh - ph, i + (o_hi_h - 1) * sh - ph + 1, sh)
                in_w = slice(j + o_lo_w * sw - pw, j + (o_hi_w - 1) * sw - pw + 1, sw)
                self._copies.append((dst[:, :, o_lo_h:o_hi_h, o_lo_w:o_hi_w],
                                     in_h, in_w))

    @property
    def gemm_view(self) -> np.ndarray:
        """The stack reshaped ``(N, KH*KW*C, OH*OW)`` for the batched GEMM."""
        kh, kw = self.kernel
        return self.stack.reshape(self.batch, kh * kw * self.in_channels,
                                  self.out_height * self.out_width)

    def fill(self, x: np.ndarray) -> np.ndarray:
        """Copy the kernel-offset slices of ``x`` (N, C, H, W) into the stack."""
        for dst, in_h, in_w in self._copies:
            dst[...] = x[:, :, in_h, in_w]
        return self.stack


def pack_stacked_weights(weight_codes: np.ndarray, dtype=np.float64) -> np.ndarray:
    """Weights ``(O, C, KH, KW)`` packed ``(O, KH*KW*C)`` for the stacked GEMM."""
    o = weight_codes.shape[0]
    return np.ascontiguousarray(
        weight_codes.transpose(0, 2, 3, 1).reshape(o, -1).astype(dtype))


def pack_stacked_depthwise_weights(weight_codes: np.ndarray,
                                   dtype=np.float64) -> np.ndarray:
    """Depthwise weights ``(C, 1, KH, KW)`` as a dense ``(C, KH*KW*C)`` matrix.

    Channel ``c``'s taps land at stacked-K positions ``k*C + c``; all other
    entries are zero, so the dense GEMM accumulates exactly the depthwise sum
    (the zero entries contribute nothing and cannot affect the accumulator
    bound).  Wasteful in FLOPs (C times the depthwise work) but BLAS-fast at
    nano channel counts; the tape's kernel rule switches to the window-view
    einsum above a fitted work bound (``repro.engine.program.conv_kernel``).
    """
    c = weight_codes.shape[0]
    kh, kw = weight_codes.shape[2], weight_codes.shape[3]
    taps = weight_codes.reshape(c, kh * kw).astype(dtype)
    packed = np.zeros((c, kh * kw * c), dtype=dtype)
    for k in range(kh * kw):
        packed[np.arange(c), k * c + np.arange(c)] = taps[:, k]
    return packed


def max_pool_codes(x: np.ndarray, kernel: tuple[int, int], stride: tuple[int, int],
                   padding: tuple[int, int], padded: np.ndarray | None,
                   out: np.ndarray) -> np.ndarray:
    """Window max over integer codes (monotone in the shared scale).

    Vectorized as a *kernel-offset reduction*: for each of the ``KH*KW``
    offsets, a strided slice of the (padded) input covers that offset's
    contribution to every window at once, and ``np.maximum`` folds it into
    the output.  That is ``KH*KW`` elementwise passes over dense NCHW-shaped
    slices instead of one reduction over the last two axes of a 6-D strided
    window view — the window view walks memory kernel-element-by-window
    (terrible locality), the offset slices walk it almost contiguously.
    Bit-identical to the window-view reduction (same elements, same max).

    Matches the fake-quant simulation exactly: padding inserts zero codes,
    which is the same constant-zero padding the float max-pool applies.
    ``padded``, when given, must have a zero border (its interior is
    overwritten here; the border is written once at allocation and relied
    upon across calls).
    """
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    src = x
    if padded is not None:
        padded[:, :, ph:ph + x.shape[2], pw:pw + x.shape[3]] = x
        src = padded
    oh, ow = out.shape[2], out.shape[3]
    h_stop = sh * (oh - 1) + 1
    w_stop = sw * (ow - 1) + 1
    np.copyto(out, src[:, :, :h_stop:sh, :w_stop:sw])
    for i in range(kh):
        for j in range(kw):
            if i == 0 and j == 0:
                continue
            np.maximum(out, src[:, :, i:i + h_stop:sh, j:j + w_stop:sw], out=out)
    return out


def max_pool_codes_reference(x: np.ndarray, kernel: tuple[int, int],
                             stride: tuple[int, int], padding: tuple[int, int],
                             padded: np.ndarray | None,
                             out: np.ndarray) -> np.ndarray:
    """The pre-vectorization window-view reduction, kept as the parity and
    benchmark baseline for :func:`max_pool_codes`."""
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    src = x
    if padded is not None:
        padded[...] = 0.0
        padded[:, :, ph:ph + x.shape[2], pw:pw + x.shape[3]] = x
        src = padded
    windows = sliding_window_view(src, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
    return np.max(windows, axis=(4, 5), out=out)
