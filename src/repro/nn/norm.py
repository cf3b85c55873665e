"""Batch normalization with the training/inference handling the paper requires.

The TQT/Graffitist flow folds batch norms into the preceding convolution
(Section 4.1) and needs three behaviours from this layer:

* batch statistics during training, moving averages during inference;
* the ability to *freeze* moving statistics after convergence
  ("freeze batch norm moving mean and variance updates post convergence");
* exposure of the effective scale/offset so the BN-folding graph transform
  can compute folded weights that are mathematically equivalent.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, sqrt
from .module import Module, Parameter

__all__ = ["BatchNorm2d"]


class BatchNorm2d(Module):
    """Batch normalization over the channel dimension of NCHW tensors."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(np.ones(num_features))
        self.beta = Parameter(np.zeros(num_features))
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))
        self.frozen = False  # freeze moving statistics post convergence

    def freeze_statistics(self) -> None:
        """Stop updating running statistics (Section 5.2: freeze after 1 epoch)."""
        self.frozen = True

    def effective_scale_offset(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(scale, offset)`` such that ``y = scale * x + offset`` at
        inference time.  Used by the BN-folding transform."""
        inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
        scale = self.gamma.data * inv_std
        offset = self.beta.data - self.running_mean * scale
        return scale, offset

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2d expects NCHW input, got shape {x.shape}")
        shape = (1, self.num_features, 1, 1)
        if self.training and not self.frozen:
            batch_mean = x.mean(axis=(0, 2, 3), keepdims=True)
            batch_var = x.var(axis=(0, 2, 3), keepdims=True)
            # Update moving averages from the batch statistics.
            self.set_buffer(
                "running_mean",
                (1 - self.momentum) * self.running_mean
                + self.momentum * batch_mean.data.reshape(-1),
            )
            self.set_buffer(
                "running_var",
                (1 - self.momentum) * self.running_var
                + self.momentum * batch_var.data.reshape(-1),
            )
            mean, var = batch_mean, batch_var
        else:
            mean = Tensor(self.running_mean.reshape(shape))
            var = Tensor(self.running_var.reshape(shape))
        normalized = (x - mean) / sqrt(var + self.eps)
        return normalized * self.gamma.reshape(shape) + self.beta.reshape(shape)

    def extra_repr(self) -> str:
        return f"{self.num_features}, eps={self.eps}, momentum={self.momentum}"
