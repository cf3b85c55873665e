"""Differentiable activation functions, losses and straight-through estimators.

The straight-through estimators (STE) defined here follow Section 3.3 of the
TQT paper precisely: the derivative of ``round`` and ``ceil`` is taken to be
``1`` in the backward pass, while the *forward* value keeps the rounded
result (``round(x) != x``).  This distinction — as opposed to treating
``round`` as the identity everywhere — is what gives the TQT threshold
gradient its range/precision trade-off behaviour.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, as_tensor

__all__ = [
    "relu",
    "relu6",
    "leaky_relu",
    "sigmoid",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "mse_loss",
    "round_ste",
    "ceil_ste",
    "floor_ste",
    "stop_gradient",
    "round_half_to_even",
    "dropout",
]


def relu(x: Tensor) -> Tensor:
    x = as_tensor(x)
    mask = x.data > 0
    return Tensor._make(x.data * mask, [(x, lambda g: g * mask)])


def relu6(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out = np.clip(x.data, 0.0, 6.0)
    mask = x.data > 0
    mask &= x.data < 6.0
    return Tensor._make(out, [(x, lambda g: g * mask)])


def leaky_relu(x: Tensor, negative_slope: float = 0.1) -> Tensor:
    x = as_tensor(x)
    mask = x.data > 0
    return Tensor._make(np.where(mask, x.data, x.data * negative_slope),
                        [(x, lambda g: np.where(mask, g, g * negative_slope))])


def sigmoid(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out = 1.0 / (1.0 + np.exp(-x.data))
    return Tensor._make(out, [(x, lambda g: g * out * (1.0 - out))])


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def grad_fn(g: np.ndarray) -> np.ndarray:
        dot = (g * out).sum(axis=axis, keepdims=True)
        return out * (g - dot)

    return Tensor._make(out, [(x, grad_fn)])


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - log_sum
    soft = np.exp(out)

    def grad_fn(g: np.ndarray) -> np.ndarray:
        return g - soft * g.sum(axis=axis, keepdims=True)

    return Tensor._make(out, [(x, grad_fn)])


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Softmax cross-entropy against integer class labels, averaged over batch.

    This is the training loss used for all quantized retraining in the paper
    (Section 5.2: "Softmax cross-entropy loss is used to compute quantization
    threshold gradients").
    """
    logits = as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.data.ndim != 2:
        raise ValueError(f"expected (batch, classes) logits, got shape {logits.shape}")
    batch = logits.data.shape[0]
    log_probs = log_softmax(logits, axis=-1)
    picked = log_probs[np.arange(batch), labels]
    return -(picked.sum() * (1.0 / batch))


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    prediction, target = as_tensor(prediction), as_tensor(target)
    diff = prediction - target
    return (diff * diff).mean()


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout.  The paper disables dropout during TQT retraining;
    it is kept here so floating-point baselines can be trained faithfully."""
    x = as_tensor(x)
    if not training or rate <= 0.0:
        return x
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep).astype(x.data.dtype) / keep
    return Tensor._make(x.data * mask, [(x, lambda g: g * mask)])


# ---------------------------------------------------------------------- #
# Straight-through estimators (Section 3.3)
# ---------------------------------------------------------------------- #
def round_half_to_even(values: np.ndarray) -> np.ndarray:
    """Banker's rounding, the paper's round-to-nearest-even ``⌊.⌉``."""
    return np.rint(values)


def round_ste(x: Tensor) -> Tensor:
    """Round-to-nearest-even with a straight-through unit gradient."""
    x = as_tensor(x)
    return Tensor._make(round_half_to_even(x.data), [(x, lambda g: g)])


def ceil_ste(x: Tensor) -> Tensor:
    """Ceil with a straight-through unit gradient (used on ``log2 t``)."""
    x = as_tensor(x)
    return Tensor._make(np.ceil(x.data), [(x, lambda g: g)])


def floor_ste(x: Tensor) -> Tensor:
    """Floor with a straight-through unit gradient."""
    x = as_tensor(x)
    return Tensor._make(np.floor(x.data), [(x, lambda g: g)])


def stop_gradient(x: Tensor) -> Tensor:
    """Equivalent of ``tf.stop_gradient``: identity forward, zero gradient."""
    return as_tensor(x).detach()
