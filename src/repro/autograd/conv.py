"""Convolution and pooling primitives (NCHW layout, float64 NumPy).

:func:`conv2d` picks one of three algorithms from what its arguments show —
``groups``, kernel, stride, padding and the channel counts — never a flag:

* **pointwise** (``groups == 1``, 1x1 kernel, stride 1, padding 0): the input
  already is the column matrix, so forward is ``W(O,C) @ x(N,C,HW)``,
  ``grad_x = W.T @ g`` and ``grad_w = sum_n g[n] @ x[n].T``.  Nothing is
  copied but the GEMM outputs.
* **depthwise** (``groups == C_in == C_out``): pad once, then one strided-slice
  multiply-accumulate per kernel tap; ``grad_x`` mirrors it into one padded
  gradient image and ``grad_w`` is one ``einsum`` per tap.  A ``groups=C``
  batch of K=9, O=1 GEMMs has nothing for BLAS to do.
* **im2col** (everything else: dense kxk, grouped, depth multiplier > 1): the
  reference path the two direct paths are tested against.  :func:`im2col`'s
  ``(N, C, KH, KW, OH, OW)`` layout *is* the GEMM layout — it reshapes for
  free to ``(N, G, Cg*KH*KW, OH*OW)`` and ``W @ cols`` lands in NCHW — so the
  column matrix is the only copy and backward reuses it.

Every array a backward closure reads is owned by that closure; there is no
workspace, cache or other state shared between calls or layers.

The paths differ only in summation order.  In a quantized graph every input
and weight of a convolution is an integer times a power of two and the
accumulators stay far below 2^53, so all products and sums are exact in
float64 and the three paths agree bit for bit; on real-valued data they agree
to the last few ulps (tests hold them to ``rtol 1e-12``).

:func:`max_pool2d`, :func:`avg_pool2d` and :func:`global_avg_pool2d` complete
the module.  All functions take and return
:class:`~repro.autograd.tensor.Tensor` and register exact gradients on the
tape.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import Tensor, as_tensor

__all__ = [
    "conv2d",
    "conv_output_size",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "im2col",
    "col2im",
]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling window."""
    return (size + 2 * padding - kernel) // stride + 1


def im2col(x: np.ndarray, kernel: tuple[int, int], stride: tuple[int, int],
           padding: tuple[int, int]) -> np.ndarray:
    """Rearrange image patches into columns.

    Parameters
    ----------
    x: array of shape ``(N, C, H, W)``.

    Returns
    -------
    Array of shape ``(N, C, KH, KW, OH, OW)`` sharing memory with the padded
    input where possible.
    """
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), mode="constant")
    windows = sliding_window_view(x, (kh, kw), axis=(2, 3))
    # windows: (N, C, H', W', KH, KW) where H' = H - KH + 1
    windows = windows[:, :, ::sh, ::sw, :, :]
    # -> (N, C, KH, KW, OH, OW)
    return np.ascontiguousarray(windows.transpose(0, 1, 4, 5, 2, 3))


def col2im(cols: np.ndarray, input_shape: tuple[int, int, int, int],
           kernel: tuple[int, int], stride: tuple[int, int],
           padding: tuple[int, int]) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add column gradients back to image."""
    n, c, h, w = input_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    h_padded, w_padded = h + 2 * ph, w + 2 * pw
    oh = conv_output_size(h, kh, sh, ph)
    ow = conv_output_size(w, kw, sw, pw)
    image = np.zeros((n, c, h_padded, w_padded), dtype=cols.dtype)
    # cols: (N, C, KH, KW, OH, OW)
    for i in range(kh):
        i_end = i + sh * oh
        for j in range(kw):
            j_end = j + sw * ow
            image[:, :, i:i_end:sh, j:j_end:sw] += cols[:, :, i, j, :, :]
    return image[:, :, ph:ph + h, pw:pw + w]


def _normalize_pair(value) -> tuple[int, int]:
    if isinstance(value, (tuple, list)):
        return int(value[0]), int(value[1])
    return int(value), int(value)


def _conv_im2col(x: np.ndarray, w: np.ndarray, stride, padding, groups: int):
    """Any convolution as batched GEMMs over im2col columns (the reference)."""
    n, c_out, (kh, kw) = x.shape[0], w.shape[0], w.shape[2:]
    cols = im2col(x, (kh, kw), stride, padding)  # (N, C, KH, KW, OH, OW)
    oh, ow = cols.shape[4:]
    cols_mat = cols.reshape(n, groups, -1, oh * ow)  # (N, G, Cg*KH*KW, OH*OW)
    w_mat = w.reshape(groups, c_out // groups, -1)  # (G, C_out/G, Cg*KH*KW)
    out = np.matmul(w_mat, cols_mat).reshape(n, c_out, oh, ow)

    def grad_x(g: np.ndarray) -> np.ndarray:
        cols_grad = np.matmul(w_mat.transpose(0, 2, 1), g.reshape(n, groups, -1, oh * ow))
        return col2im(cols_grad.reshape(cols.shape), x.shape, (kh, kw), stride, padding)

    def grad_w(g: np.ndarray) -> np.ndarray:
        g_mat = g.reshape(n, groups, -1, oh * ow)
        return np.matmul(g_mat, cols_mat.transpose(0, 1, 3, 2)).sum(axis=0).reshape(w.shape)

    return out, grad_x, grad_w


def _conv_pointwise(x: np.ndarray, w: np.ndarray):
    """Dense 1x1, stride 1, no padding: the input is its own column matrix."""
    n, c_in, h, wd = x.shape
    c_out = w.shape[0]
    x_mat = x.reshape(n, c_in, h * wd)
    w_mat = w.reshape(c_out, c_in)
    out = np.matmul(w_mat, x_mat).reshape(n, c_out, h, wd)

    def grad_x(g: np.ndarray) -> np.ndarray:
        return np.matmul(w_mat.T, g.reshape(n, c_out, h * wd)).reshape(x.shape)

    def grad_w(g: np.ndarray) -> np.ndarray:
        g_mat = g.reshape(n, c_out, h * wd)
        return np.matmul(g_mat, x_mat.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)

    return out, grad_x, grad_w


def _conv_depthwise(x: np.ndarray, w: np.ndarray, stride, padding):
    """One filter per channel: a shifted multiply-accumulate per kernel tap."""
    n, c, h, wd = x.shape
    kh, kw = w.shape[2:]
    (sh, sw), (ph, pw) = stride, padding
    oh = conv_output_size(h, kh, sh, ph)
    ow = conv_output_size(wd, kw, sw, pw)
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if ph or pw else x
    # (per-channel tap weight, the window of the padded image it multiplies)
    taps = [(w[:, 0, i, j].reshape(1, c, 1, 1),
             (..., slice(i, i + sh * oh, sh), slice(j, j + sw * ow, sw)))
            for i in range(kh) for j in range(kw)]
    (w_first, first), *rest = taps
    out = xp[first] * w_first
    tmp = np.empty_like(out)
    for w_tap, window in rest:
        out += np.multiply(xp[window], w_tap, out=tmp)

    def grad_x(g: np.ndarray) -> np.ndarray:
        image = np.zeros(xp.shape, dtype=out.dtype)
        tmp = np.empty(g.shape, dtype=out.dtype)
        for w_tap, window in taps:
            image[window] += np.multiply(g, w_tap, out=tmp)
        return image[:, :, ph:ph + h, pw:pw + wd]

    def grad_w(g: np.ndarray) -> np.ndarray:
        per_tap = [np.einsum("nchw,nchw->c", g, xp[window]) for _, window in taps]
        return np.stack(per_tap, axis=1).reshape(w.shape)

    return out, grad_x, grad_w


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride=1, padding=0, groups: int = 1) -> Tensor:
    """2-D convolution over an NCHW input.

    Parameters
    ----------
    x: ``(N, C_in, H, W)`` input tensor.
    weight: ``(C_out, C_in // groups, KH, KW)`` filters.
    bias: optional ``(C_out,)`` bias.
    groups: ``1`` for dense convolution, ``C_in`` for depthwise.

    The algorithm (pointwise, depthwise or im2col; see the module docstring)
    follows from the shapes, ``stride``, ``padding`` and ``groups``.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    stride = _normalize_pair(stride)
    padding = _normalize_pair(padding)
    c_in = x.data.shape[1]
    c_out, c_in_per_group, kh, kw = weight.data.shape
    if c_in % groups or c_out % groups:
        raise ValueError(f"channels ({c_in}->{c_out}) not divisible by groups={groups}")
    if c_in_per_group != c_in // groups:
        raise ValueError(
            f"weight expects {c_in_per_group} input channels per group, input has {c_in // groups}"
        )
    if groups == 1 and (kh, kw, *stride, *padding) == (1, 1, 1, 1, 0, 0):
        out, grad_x, grad_w = _conv_pointwise(x.data, weight.data)
    elif groups == c_in == c_out:
        out, grad_x, grad_w = _conv_depthwise(x.data, weight.data, stride, padding)
    else:
        out, grad_x, grad_w = _conv_im2col(x.data, weight.data, stride, padding, groups)

    parents = [(x, grad_x), (weight, grad_w)]
    if bias is not None:
        bias = as_tensor(bias)
        out += bias.data.reshape(1, c_out, 1, 1)  # ``out`` is this call's own array
        parents.append((bias, lambda g: g.sum(axis=(0, 2, 3))))
    return Tensor._make(out, parents)


def max_pool2d(x: Tensor, kernel_size=2, stride=None, padding=0) -> Tensor:
    """Max pooling over NCHW input."""
    x = as_tensor(x)
    kernel = _normalize_pair(kernel_size)
    stride = _normalize_pair(stride if stride is not None else kernel_size)
    padding = _normalize_pair(padding)
    n, c, h, w = x.data.shape
    oh = conv_output_size(h, kernel[0], stride[0], padding[0])
    ow = conv_output_size(w, kernel[1], stride[1], padding[1])

    cols = im2col(x.data, kernel, stride, padding)  # (N, C, KH, KW, OH, OW)
    cols_flat = cols.reshape(n, c, kernel[0] * kernel[1], oh, ow)
    argmax = cols_flat.argmax(axis=2)
    out = np.take_along_axis(cols_flat, argmax[:, :, None, :, :], axis=2)[:, :, 0, :, :]

    def grad_fn(g: np.ndarray) -> np.ndarray:
        cols_grad_flat = np.zeros_like(cols_flat)
        np.put_along_axis(cols_grad_flat, argmax[:, :, None, :, :], g[:, :, None, :, :], axis=2)
        cols_grad = cols_grad_flat.reshape(n, c, kernel[0], kernel[1], oh, ow)
        return col2im(cols_grad, (n, c, h, w), kernel, stride, padding)

    return Tensor._make(out, [(x, grad_fn)])


def avg_pool2d(x: Tensor, kernel_size=2, stride=None, padding=0) -> Tensor:
    """Average pooling over NCHW input."""
    x = as_tensor(x)
    kernel = _normalize_pair(kernel_size)
    stride = _normalize_pair(stride if stride is not None else kernel_size)
    padding = _normalize_pair(padding)
    n, c, h, w = x.data.shape
    oh = conv_output_size(h, kernel[0], stride[0], padding[0])
    ow = conv_output_size(w, kernel[1], stride[1], padding[1])
    window = kernel[0] * kernel[1]

    cols = im2col(x.data, kernel, stride, padding)
    out = cols.mean(axis=(2, 3))

    def grad_fn(g: np.ndarray) -> np.ndarray:
        g_cols = np.broadcast_to(
            g[:, :, None, None, :, :] / window, (n, c, kernel[0], kernel[1], oh, ow)
        ).astype(g.dtype)
        return col2im(g_cols, (n, c, h, w), kernel, stride, padding)

    return Tensor._make(out, [(x, grad_fn)])


def global_avg_pool2d(x: Tensor, keepdims: bool = True) -> Tensor:
    """Global average pooling (mean over the spatial dimensions)."""
    x = as_tensor(x)
    return x.mean(axis=(2, 3), keepdims=keepdims)
