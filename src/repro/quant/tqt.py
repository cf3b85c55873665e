"""The TQT quantizer: forward pass of Eq. 4, backward pass of Eqs. 6–8.

Two implementations are provided, mirroring Section 4.4 of the paper:

* :func:`tqt_quantize` — the **fused** kernel: one autograd node, five passes
  over the input (divide, round, clip, compare, multiply).  Its two backward
  closures keep alive only the clipped integer codes ``q`` and one boolean
  ``inside`` mask (9 bytes per element); ``x / s`` is one division of the
  input array, which the tape holds anyway, and is redone when the threshold
  gradient is asked for.  The closures own what they keep — no workspace
  shared across calls or layers — and never write into it, so a node can be
  backpropagated more than once.
* :func:`tqt_quantize_unfused` — the **unfused** reference, composed of
  primitive autograd ops with straight-through ``ceil``/``round``
  (Figure 4's ``tf.stop_gradient`` construction).  Its tape holds eleven nodes
  and a full-size float64 array for most of them: the scale, the scaled
  input, the rounded and clipped values and the clip mask.  It agrees with
  the fused kernel to ``rtol 1e-12`` (exactly, for the forward values of a
  power-of-2 scale away from rounding ties) and exists both as a correctness
  oracle and as the memory/runtime baseline of the Figure 4 benchmark.

The module-level class :class:`TQTQuantizer` owns the learnable
``log2_t`` parameter, handles signed/unsigned ranges, power-of-2 vs. real
scale-factors, per-tensor vs. per-channel granularity, calibration-based
initialization and freezing.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, as_tensor
from ..autograd.functional import ceil_ste, round_ste
from ..autograd.tensor import clip as clip_op
from ..nn import Module, Parameter
from .config import QuantConfig

__all__ = [
    "tqt_quantize",
    "tqt_quantize_unfused",
    "compute_scale",
    "TQTQuantizer",
]

_LN2 = float(np.log(2.0))
#: smallest normal float64 (2^-1022): the floor of every scale factor.  A
#: threshold so small that ``2^ceil(log2 t) / levels`` underflows would
#: otherwise give ``s = 0`` and ``0 / 0 = NaN`` codes.
_MIN_SCALE = 2.0 ** -1022


def compute_scale(log2_t: np.ndarray, config: QuantConfig) -> np.ndarray:
    """Scale factor ``s`` from the (log-domain) threshold.

    For power-of-2 scaling the raw threshold is first rounded up to the next
    power of two (``2^ceil(log2 t)``), so the clipping range is biased toward
    covering more of the distribution (Section 3.2, footnote 3).  ``s`` never
    falls below the smallest normal float64; above that floor (every
    ``log2 t >= -1000`` at up to 22 bits) the floor changes nothing.
    """
    log2_t = np.asarray(log2_t, dtype=np.float64)
    effective = np.ceil(log2_t) if config.power_of_2 else log2_t
    return np.maximum(2.0 ** effective / config.levels, _MIN_SCALE)


def tqt_quantize(x: Tensor, log2_t: Tensor, config: QuantConfig,
                 channel_axis: int | None = None) -> Tensor:
    """Fused TQT fake-quantization of ``x`` parameterized by ``log2_t``.

    Parameters
    ----------
    x: input tensor of any shape.
    log2_t: scalar log2-threshold (per-tensor) or a vector when
        ``channel_axis`` is given (per-channel, baseline configurations only).
    config: quantizer configuration (bits, signedness, power-of-2...).
    channel_axis: axis of ``x`` along which per-channel thresholds apply.

    Returns
    -------
    Fake-quantized tensor of the same shape as ``x``.  Gradients follow
    Eq. 7 (w.r.t. ``log2_t``) and Eq. 8 (w.r.t. ``x``).
    """
    x = as_tensor(x)
    log2_t = as_tensor(log2_t)
    n, p = config.qmin, config.qmax

    t_values = log2_t.data
    if channel_axis is not None:
        broadcast_shape = [1] * x.data.ndim
        broadcast_shape[channel_axis] = -1
        t_values = t_values.reshape(broadcast_shape)

    s = compute_scale(t_values, config)
    values = x.data
    out = np.asarray(values / s)
    np.rint(out, out=out)
    q = np.clip(out, n, p)
    # Compared with the codes before clipping, so a tie that rounds to p + 1
    # counts as outside.
    inside = q == out
    np.multiply(q, s, out=out)

    def grad_x(g: np.ndarray) -> np.ndarray:
        # Eq. 8: pass-through inside the clipping range, zero outside.
        return g * inside

    def grad_log2_t(g: np.ndarray) -> np.ndarray:
        # Eq. 7: s·ln2 · (⌊x/s⌉ - x/s | n | p), reduced over the elements that
        # share the threshold.  Outside the range the clipped ``q`` already is
        # n or p, so the per-element term is q - (x/s)·inside; x/s is one
        # division of an array the tape holds anyway, cheaper than keeping it.
        term = np.asarray(values / s)
        term *= inside
        np.subtract(q, term, out=term)
        axes = list(range(term.ndim))
        kept = [] if channel_axis is None else [axes[channel_axis]]
        total = np.einsum(g, axes, term, axes, kept)
        return (total * s.reshape(total.shape) * _LN2).reshape(log2_t.data.shape)

    return Tensor._make(out, [(x, grad_x), (log2_t, grad_log2_t)])


def tqt_quantize_unfused(x: Tensor, log2_t: Tensor, config: QuantConfig) -> Tensor:
    """Unfused TQT quantizer built from primitive autograd ops (Figure 4).

    Keeps every intermediate tensor on the tape (scale, scaled input, rounded
    values), which is exactly the memory overhead the fused kernel avoids.
    Only per-tensor scaling is supported, matching the paper's constraint.
    """
    x = as_tensor(x)
    log2_t = as_tensor(log2_t)
    n, p = float(config.qmin), float(config.qmax)

    effective = ceil_ste(log2_t) if config.power_of_2 else log2_t
    # s = 2^effective / levels, expressed through exp/log so autograd tracks it.
    from ..autograd import exp  # local import to avoid cycle at module load

    s = clip_op(exp(effective * _LN2) * (1.0 / config.levels), _MIN_SCALE, np.inf)
    scaled = x / s
    rounded = round_ste(scaled)
    clipped = clip_op(rounded, n, p)
    return clipped * s


class TQTQuantizer(Module):
    """Trainable fake-quantization module with a learnable log2-threshold.

    Parameters
    ----------
    config: the quantizer's :class:`~repro.quant.config.QuantConfig`.
    init_log2_t: initial log2-threshold; usually overwritten by calibration
        (:meth:`initialize_from`).
    channel_count / channel_axis: when given, one threshold per channel
        (baseline configurations; the TQT scheme itself is per-tensor).
    trainable: when False the threshold is held fixed (static mode or
        wt-only retraining).
    """

    def __init__(self, config: QuantConfig, init_log2_t: float = 0.0,
                 channel_count: int | None = None, channel_axis: int = 0,
                 trainable: bool = True, name: str | None = None) -> None:
        super().__init__()
        self.config = config
        self.channel_axis = channel_axis if channel_count is not None else None
        shape = (channel_count,) if channel_count is not None else ()
        self.log2_t = Parameter(np.full(shape, float(init_log2_t)), requires_grad=trainable)
        self.trainable = trainable
        self.frozen = False
        self.name = name
        self.calibrated = False

    # ------------------------------------------------------------------ #
    # Threshold management
    # ------------------------------------------------------------------ #
    @property
    def threshold(self) -> np.ndarray:
        """Raw threshold ``t = 2^(log2_t)``."""
        return 2.0 ** self.log2_t.data

    @property
    def scale(self) -> np.ndarray:
        """Effective scale factor ``s`` used by the forward pass."""
        return compute_scale(self.log2_t.data, self.config)

    @property
    def fractional_length(self) -> np.ndarray:
        """Integer fractional length ``f`` with ``s = 2^-f`` (power-of-2 only)."""
        if not self.config.power_of_2:
            raise ValueError("fractional length is only defined for power-of-2 scaling")
        return -np.log2(self.scale).astype(np.int64)

    def set_log2_threshold(self, value) -> None:
        self.log2_t.data[...] = np.asarray(value, dtype=np.float64)

    def initialize_from(self, threshold) -> None:
        """Set the threshold from a calibration result given in the raw domain."""
        threshold = np.maximum(np.asarray(threshold, dtype=np.float64), 1e-12)
        self.set_log2_threshold(np.log2(threshold))
        self.calibrated = True

    def freeze(self) -> None:
        """Stop training this threshold (Section 5.2 incremental freezing)."""
        self.frozen = True
        self.log2_t.requires_grad = False

    def unfreeze(self) -> None:
        self.frozen = False
        self.log2_t.requires_grad = self.trainable

    def set_trainable(self, trainable: bool) -> None:
        self.trainable = trainable
        self.log2_t.requires_grad = trainable and not self.frozen

    # ------------------------------------------------------------------ #
    # Forward
    # ------------------------------------------------------------------ #
    def forward(self, x: Tensor) -> Tensor:
        return tqt_quantize(x, self.log2_t, self.config, channel_axis=self.channel_axis)

    def quantize_to_integers(self, x: np.ndarray) -> np.ndarray:
        """Return the integer codes ``q`` for ``x`` (used by the fixed-point path)."""
        values = np.asarray(x, dtype=np.float64)
        s = self.scale
        if self.channel_axis is not None:
            shape = [1] * values.ndim
            shape[self.channel_axis] = -1
            s = s.reshape(shape)
        return np.clip(np.rint(values / s), self.config.qmin, self.config.qmax).astype(np.int64)

    def extra_repr(self) -> str:
        granularity = "per-channel" if self.channel_axis is not None else "per-tensor"
        return (f"bits={self.config.bits}, signed={self.config.signed}, "
                f"pow2={self.config.power_of_2}, {granularity}, trainable={self.trainable}")
