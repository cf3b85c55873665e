"""TensorFlow-FakeQuant-style quantizer with *clipped* threshold gradients.

This is the baseline analysed in Section 3.5 / Figure 3 of the paper: the
forward pass is mathematically equivalent to the TQT quantizer (up to the
optional zero-point), but the backward pass treats the rounding as identity,
so the quantization function degenerates into a plain ``clip`` for gradient
purposes.  The gradients w.r.t. the ``min``/``max`` thresholds are then only
non-zero *outside* the clipping range, which pushes the thresholds outward
to the distribution extremes — range is always favoured over precision.

Both an asymmetric (min/max with nudged zero-point, as in Google QAT) and a
symmetric (±t) variant are provided, per-tensor or per-channel, so the QAT
rows of Table 1 can be reproduced.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, as_tensor
from ..nn import Module, Parameter
from .config import QuantConfig

__all__ = ["fake_quantize", "FakeQuantizer", "nudge_zero_point"]


def nudge_zero_point(min_val: np.ndarray, max_val: np.ndarray,
                     qmin: int, qmax: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adjust (min, max) so that zero maps exactly to an integer zero-point.

    Implements the nudging used by TF FakeQuant / gemmlowp so the real zero
    is exactly representable, a requirement noted in the paper's footnote 1.
    Returns ``(scale, zero_point, nudged_min)``.
    """
    min_val = np.minimum(np.asarray(min_val, dtype=np.float64), 0.0)
    max_val = np.maximum(np.asarray(max_val, dtype=np.float64), 0.0)
    scale = (max_val - min_val) / (qmax - qmin)
    scale = np.where(scale <= 0, 1e-12, scale)
    zero_point_float = qmin - min_val / scale
    zero_point = np.clip(np.rint(zero_point_float), qmin, qmax)
    nudged_min = (qmin - zero_point) * scale
    return scale, zero_point, nudged_min


def fake_quantize(x: Tensor, min_val: Tensor, max_val: Tensor, config: QuantConfig,
                  channel_axis: int | None = None) -> Tensor:
    """FakeQuant forward (Eq. 11) with clipped threshold gradients.

    Backward definitions (matching the TF kernel referenced in Section 3.5):

    * grad wrt ``x``: 1 inside ``[min, max]``, 0 outside;
    * grad wrt ``min``: 1 where ``x < min`` (upstream gradient passes), else 0;
    * grad wrt ``max``: 1 where ``x > max``, else 0.
    """
    x = as_tensor(x)
    min_val = as_tensor(min_val)
    max_val = as_tensor(max_val)
    qmin, qmax = config.qmin, config.qmax

    mn = min_val.data
    mx = max_val.data
    if channel_axis is not None:
        shape = [1] * x.data.ndim
        shape[channel_axis] = -1
        mn = mn.reshape(shape)
        mx = mx.reshape(shape)

    scale, zero_point, nudged_min = nudge_zero_point(mn, mx, qmin, qmax)
    nudged_max = nudged_min + (qmax - qmin) * scale

    clipped = np.clip(x.data, nudged_min, nudged_max)
    quantized = np.rint((clipped - nudged_min) / scale)
    out = quantized * scale + nudged_min

    below = x.data < nudged_min
    above = x.data > nudged_max
    inside = ~(below | above)

    def grad_x(g: np.ndarray) -> np.ndarray:
        return g * inside

    def _reduce(grad: np.ndarray, target_shape: tuple[int, ...]) -> np.ndarray:
        if channel_axis is None:
            return np.asarray(grad.sum()).reshape(target_shape)
        axes = tuple(i for i in range(grad.ndim) if i != channel_axis)
        return grad.sum(axis=axes).reshape(target_shape)

    def grad_min(g: np.ndarray) -> np.ndarray:
        return _reduce(g * below, min_val.data.shape)

    def grad_max(g: np.ndarray) -> np.ndarray:
        return _reduce(g * above, max_val.data.shape)

    return Tensor._make(out, [(x, grad_x), (min_val, grad_min), (max_val, grad_max)])


class FakeQuantizer(Module):
    """Google-QAT-style quantizer module with trainable (clipped-grad) thresholds.

    Parameters
    ----------
    config: quantizer configuration.  ``symmetric=False`` gives the
        asymmetric per-tensor baseline; ``per_channel=True`` the per-channel
        symmetric baseline of Table 1.
    channel_count: number of channels when ``config.per_channel``.
    trainable: whether min/max receive gradient updates.
    """

    def __init__(self, config: QuantConfig, init_min: float = -1.0, init_max: float = 1.0,
                 channel_count: int | None = None, channel_axis: int = 0,
                 trainable: bool = True, name: str | None = None) -> None:
        super().__init__()
        if config.power_of_2:
            raise ValueError("FakeQuantizer models real-valued scaling baselines; "
                             "use TQTQuantizer for power-of-2 scaling")
        self.config = config
        self.channel_axis = channel_axis if channel_count is not None else None
        shape = (channel_count,) if channel_count is not None else ()
        self.min_val = Parameter(np.full(shape, float(init_min)), requires_grad=trainable)
        self.max_val = Parameter(np.full(shape, float(init_max)), requires_grad=trainable)
        self.trainable = trainable
        self.name = name
        self.calibrated = False

    @property
    def scale(self) -> np.ndarray:
        scale, _, _ = nudge_zero_point(self.min_val.data, self.max_val.data,
                                       self.config.qmin, self.config.qmax)
        return scale

    @property
    def zero_point(self) -> np.ndarray:
        _, zero_point, _ = nudge_zero_point(self.min_val.data, self.max_val.data,
                                            self.config.qmin, self.config.qmax)
        return zero_point

    def initialize_from(self, threshold) -> None:
        """Initialize from a symmetric threshold estimate (calibration result)."""
        threshold = np.asarray(threshold, dtype=np.float64)
        self.min_val.data[...] = -threshold
        self.max_val.data[...] = threshold
        self.calibrated = True

    def initialize_min_max(self, min_val, max_val) -> None:
        self.min_val.data[...] = np.asarray(min_val, dtype=np.float64)
        self.max_val.data[...] = np.asarray(max_val, dtype=np.float64)
        self.calibrated = True

    def set_trainable(self, trainable: bool) -> None:
        self.trainable = trainable
        self.min_val.requires_grad = trainable
        self.max_val.requires_grad = trainable

    def forward(self, x: Tensor) -> Tensor:
        min_val: Tensor = self.min_val
        if self.config.symmetric:
            # Symmetric variants tie min = -max so only one effective threshold.
            min_val = -self.max_val
        return fake_quantize(x, min_val, self.max_val, self.config,
                             channel_axis=self.channel_axis)

    def extra_repr(self) -> str:
        granularity = "per-channel" if self.channel_axis is not None else "per-tensor"
        mode = "symmetric" if self.config.symmetric else "asymmetric"
        return f"bits={self.config.bits}, {mode}, {granularity}, trainable={self.trainable}"
