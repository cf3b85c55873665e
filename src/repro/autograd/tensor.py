"""Reverse-mode automatic differentiation over NumPy arrays.

This module provides the :class:`Tensor` class, a thin wrapper around
``numpy.ndarray`` that records a computation tape and supports reverse-mode
differentiation via :meth:`Tensor.backward`.  It is the substrate on which
the neural-network layers (:mod:`repro.nn`), the quantizers
(:mod:`repro.quant`) and the training loops (:mod:`repro.training`) are
built, replacing the TensorFlow runtime used by the original TQT paper.

Design notes
------------
* Every differentiable operation creates a new ``Tensor`` whose ``_parents``
  list stores ``(parent_tensor, grad_fn)`` pairs.  ``grad_fn`` maps the
  upstream gradient (a NumPy array with the shape of the *output*) to the
  gradient contribution for that parent (a NumPy array with the shape of the
  *parent*).
* Broadcasting is handled uniformly by :func:`unbroadcast`, which sums the
  upstream gradient over broadcast dimensions.
* Gradient computation is disabled inside a :func:`no_grad` context or when
  the global flag is switched off; in that case ops return plain constant
  tensors, which keeps inference graphs cheap.
* Straight-through estimators (round/ceil with unit gradients) live in
  :mod:`repro.autograd.functional`; this module only provides exact
  gradients.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "set_grad_enabled",
    "unbroadcast",
    "zeros",
    "ones",
    "full",
    "arange",
    "randn",
    "rand",
    "concatenate",
    "stack",
    "where",
    "maximum",
    "minimum",
    "exp",
    "log",
    "sqrt",
    "tanh",
    "abs",
    "clip",
    "matmul",
    "pad",
]

GradFn = Callable[[np.ndarray], np.ndarray]

_GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    """Return whether gradient recording is currently enabled."""
    return _GRAD_ENABLED


def set_grad_enabled(enabled: bool) -> None:
    """Globally enable or disable gradient recording."""
    global _GRAD_ENABLED
    _GRAD_ENABLED = bool(enabled)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables gradient recording within its scope."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it has ``shape``.

    NumPy broadcasting can expand a parent of shape ``shape`` to the output
    shape; the corresponding gradient must be summed over the broadcast
    axes to match the parent.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the parent but expanded in the output.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy array with reverse-mode autograd support.

    Parameters
    ----------
    data:
        Array-like payload. Converted to ``float64`` unless an explicit dtype
        is given or the input is already a floating/integer array.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "name")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: Sequence[tuple["Tensor", GradFn]] | None = None,
        name: str | None = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad: bool = bool(requires_grad) and is_grad_enabled()
        self._parents: tuple[tuple["Tensor", GradFn], ...] = tuple(parents or ())
        self.name = name

    # ------------------------------------------------------------------ #
    # Basic introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying NumPy array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{grad_flag})"

    # ------------------------------------------------------------------ #
    # Graph construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Iterable[tuple["Tensor", GradFn]],
    ) -> "Tensor":
        """Create an op output, wiring parents only when grads are enabled."""
        parents = [(p, fn) for p, fn in parents if p.requires_grad]
        requires = bool(parents) and is_grad_enabled()
        return Tensor(data, requires_grad=requires, parents=parents if requires else None)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def clone(self) -> "Tensor":
        """Return a differentiable copy of this tensor."""
        return Tensor._make(self.data.copy(), [(self, lambda g: g)])

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # Backward
    # ------------------------------------------------------------------ #
    def backward(self, grad: np.ndarray | float | None = None) -> None:
        """Backpropagate ``grad`` through the recorded graph.

        Parameters
        ----------
        grad:
            Upstream gradient with the same shape as ``self``.  Defaults to
            ``1.0`` for scalar outputs (the typical loss case).
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).astype(self.data.dtype)

        # Topological order of the graph reachable from self.
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent, _ in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(order):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if not node._parents:
                # Leaf tensor: accumulate into .grad
                if node.grad is None:
                    node.grad = node_grad.copy()
                else:
                    node.grad = node.grad + node_grad
                continue
            for parent, grad_fn in node._parents:
                contribution = grad_fn(node_grad)
                contribution = np.asarray(contribution, dtype=parent.data.dtype)
                if contribution.shape != parent.data.shape:
                    contribution = unbroadcast(contribution, parent.data.shape)
                existing = grads.get(id(parent))
                grads[id(parent)] = contribution if existing is None else existing + contribution
            # Interior nodes also expose .grad when explicitly requested by
            # marking them as leaves is not supported; keep memory small.

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        out = self.data + other.data
        return Tensor._make(out, [(self, lambda g: g), (other, lambda g: g)])

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = as_tensor(other)
        out = self.data - other.data
        return Tensor._make(out, [(self, lambda g: g), (other, lambda g: -g)])

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out = self.data * other.data
        return Tensor._make(
            out,
            [(self, lambda g: g * other.data), (other, lambda g: g * self.data)],
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        out = self.data / other.data
        return Tensor._make(
            out,
            [
                (self, lambda g: g / other.data),
                (other, lambda g: -g * self.data / (other.data ** 2)),
            ],
        )

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        return Tensor._make(-self.data, [(self, lambda g: -g)])

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        out = self.data ** exponent
        return Tensor._make(
            out,
            [(self, lambda g: g * exponent * self.data ** (exponent - 1))],
        )

    def __matmul__(self, other) -> "Tensor":
        return matmul(self, other)

    # Comparison operators return plain boolean arrays (no gradient flows).
    def __lt__(self, other):
        return self.data < _raw(other)

    def __le__(self, other):
        return self.data <= _raw(other)

    def __gt__(self, other):
        return self.data > _raw(other)

    def __ge__(self, other):
        return self.data >= _raw(other)

    # ------------------------------------------------------------------ #
    # Shape ops
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        out = self.data.reshape(shape)
        return Tensor._make(out, [(self, lambda g: g.reshape(original))])

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        inverse = tuple(np.argsort(axes))
        out = self.data.transpose(axes)
        return Tensor._make(out, [(self, lambda g: g.transpose(inverse))])

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def flatten(self, start_dim: int = 0) -> "Tensor":
        shape = self.data.shape
        new_shape = shape[:start_dim] + (-1,)
        return self.reshape(new_shape)

    def __getitem__(self, index) -> "Tensor":
        out = self.data[index]
        shape = self.data.shape

        def grad_fn(g: np.ndarray) -> np.ndarray:
            full_grad = np.zeros(shape, dtype=g.dtype)
            np.add.at(full_grad, index, g)
            return full_grad

        return Tensor._make(out, [(self, grad_fn)])

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.data.shape

        def grad_fn(g: np.ndarray) -> np.ndarray:
            if axis is None:
                return np.broadcast_to(g, shape).copy()
            g_expanded = g if keepdims else np.expand_dims(g, axis)
            return np.broadcast_to(g_expanded, shape).copy()

        return Tensor._make(out, [(self, grad_fn)])

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mean = self.mean(axis=axis, keepdims=True)
        centered = self - mean
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = self.data.max(axis=axis, keepdims=keepdims)
        data = self.data

        def grad_fn(g: np.ndarray) -> np.ndarray:
            if axis is None:
                mask = (data == data.max()).astype(g.dtype)
                mask /= mask.sum()
                return mask * g
            out_expanded = out if keepdims else np.expand_dims(out, axis)
            g_expanded = g if keepdims else np.expand_dims(g, axis)
            mask = (data == out_expanded).astype(g.dtype)
            mask /= mask.sum(axis=axis, keepdims=True)
            return mask * g_expanded

        return Tensor._make(out, [(self, grad_fn)])

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))


def _raw(value) -> np.ndarray:
    return value.data if isinstance(value, Tensor) else np.asarray(value)


def as_tensor(value, requires_grad: bool = False) -> Tensor:
    """Coerce ``value`` into a :class:`Tensor` (no copy if already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)


# ---------------------------------------------------------------------- #
# Factory functions
# ---------------------------------------------------------------------- #
def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=requires_grad)


def full(shape, value: float, requires_grad: bool = False) -> Tensor:
    return Tensor(np.full(shape, float(value)), requires_grad=requires_grad)


def arange(*args, requires_grad: bool = False) -> Tensor:
    return Tensor(np.arange(*args, dtype=np.float64), requires_grad=requires_grad)


def randn(*shape, rng: np.random.Generator | None = None, requires_grad: bool = False) -> Tensor:
    rng = rng or np.random.default_rng()
    return Tensor(rng.standard_normal(shape), requires_grad=requires_grad)


def rand(*shape, rng: np.random.Generator | None = None, requires_grad: bool = False) -> Tensor:
    rng = rng or np.random.default_rng()
    return Tensor(rng.random(shape), requires_grad=requires_grad)


# ---------------------------------------------------------------------- #
# Free-function ops
# ---------------------------------------------------------------------- #
def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with gradients for both operands (2-D or batched)."""
    a, b = as_tensor(a), as_tensor(b)
    out = a.data @ b.data

    def grad_a(g: np.ndarray) -> np.ndarray:
        return g @ np.swapaxes(b.data, -1, -2)

    def grad_b(g: np.ndarray) -> np.ndarray:
        return np.swapaxes(a.data, -1, -2) @ g

    return Tensor._make(out, [(a, grad_a), (b, grad_b)])


def exp(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out = np.exp(x.data)
    return Tensor._make(out, [(x, lambda g: g * out)])


def log(x: Tensor) -> Tensor:
    x = as_tensor(x)
    return Tensor._make(np.log(x.data), [(x, lambda g: g / x.data)])


def sqrt(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out = np.sqrt(x.data)
    return Tensor._make(out, [(x, lambda g: g * 0.5 / out)])


def tanh(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out = np.tanh(x.data)
    return Tensor._make(out, [(x, lambda g: g * (1.0 - out ** 2))])


def abs(x: Tensor) -> Tensor:  # noqa: A001 - mirrors numpy naming
    x = as_tensor(x)
    return Tensor._make(np.abs(x.data), [(x, lambda g: g * np.sign(x.data))])


def clip(x: Tensor, low: float, high: float) -> Tensor:
    """Clip with zero gradient outside ``[low, high]`` (exact sub-gradient)."""
    x = as_tensor(x)
    out = np.clip(x.data, low, high)
    mask = ((x.data >= low) & (x.data <= high)).astype(x.data.dtype)
    return Tensor._make(out, [(x, lambda g: g * mask)])


def maximum(a: Tensor, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = np.maximum(a.data, b.data)
    mask_a = (a.data >= b.data).astype(a.data.dtype)
    return Tensor._make(
        out,
        [(a, lambda g: g * mask_a), (b, lambda g: g * (1.0 - mask_a))],
    )


def minimum(a: Tensor, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = np.minimum(a.data, b.data)
    mask_a = (a.data <= b.data).astype(a.data.dtype)
    return Tensor._make(
        out,
        [(a, lambda g: g * mask_a), (b, lambda g: g * (1.0 - mask_a))],
    )


def where(condition, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select; ``condition`` is treated as a constant mask."""
    cond = _raw(condition).astype(bool)
    a, b = as_tensor(a), as_tensor(b)
    out = np.where(cond, a.data, b.data)
    return Tensor._make(
        out,
        [
            (a, lambda g: g * cond),
            (b, lambda g: g * (~cond)),
        ],
    )


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    parents = []
    for i, t in enumerate(tensors):
        start, stop = offsets[i], offsets[i + 1]

        def grad_fn(g: np.ndarray, start=start, stop=stop) -> np.ndarray:
            index = [slice(None)] * g.ndim
            index[axis] = slice(start, stop)
            return g[tuple(index)]

        parents.append((t, grad_fn))
    return Tensor._make(out, parents)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = np.stack([t.data for t in tensors], axis=axis)
    parents = []
    for i, t in enumerate(tensors):
        def grad_fn(g: np.ndarray, i=i) -> np.ndarray:
            return np.take(g, i, axis=axis)

        parents.append((t, grad_fn))
    return Tensor._make(out, parents)


def pad(x: Tensor, pad_width: Sequence[tuple[int, int]], value: float = 0.0) -> Tensor:
    """Constant-pad ``x`` with per-axis ``(before, after)`` widths."""
    x = as_tensor(x)
    pad_width = tuple(tuple(p) for p in pad_width)
    out = np.pad(x.data, pad_width, mode="constant", constant_values=value)

    def grad_fn(g: np.ndarray) -> np.ndarray:
        slices = tuple(
            slice(before, g.shape[i] - after) for i, (before, after) in enumerate(pad_width)
        )
        return g[slices]

    return Tensor._make(out, [(x, grad_fn)])
