"""Module and Parameter abstractions, analogous to ``torch.nn.Module``.

A :class:`Module` owns :class:`Parameter` leaves and child modules, and
exposes the traversal / state-dict machinery that the graph tracer
(:mod:`repro.graph`), the quantization passes (:mod:`repro.quant.qmodules`)
and the trainer (:mod:`repro.training`) rely on.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from ..autograd import Tensor

__all__ = ["Parameter", "Module"]


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as a trainable leaf of a module."""

    def __init__(self, data, requires_grad: bool = True, name: str | None = None) -> None:
        super().__init__(np.asarray(data, dtype=np.float64), requires_grad=requires_grad, name=name)


class Module:
    """Base class for all layers and models.

    Subclasses define parameters/children as attributes in ``__init__`` and
    implement :meth:`forward`.  Assignment automatically registers
    :class:`Parameter` and :class:`Module` attributes so they are visible to
    :meth:`parameters`, :meth:`named_modules`, ``state_dict`` etc.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------ #
    # Attribute registration
    # ------------------------------------------------------------------ #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            self._modules.pop(name, None)
            self._buffers.pop(name, None)
        elif isinstance(value, Module):
            self._modules[name] = value
            self._parameters.pop(name, None)
            self._buffers.pop(name, None)
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-trainable array that is part of the module state
        (e.g. batch-norm running statistics)."""
        self._buffers[name] = np.asarray(value, dtype=np.float64)
        object.__setattr__(self, name, self._buffers[name])

    def set_buffer(self, name: str, value: np.ndarray) -> None:
        """Update a previously registered buffer in place of the registry."""
        if name not in self._buffers:
            raise KeyError(f"buffer {name!r} is not registered")
        self._buffers[name] = np.asarray(value, dtype=np.float64)
        object.__setattr__(self, name, self._buffers[name])

    # ------------------------------------------------------------------ #
    # Traversal
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield prefix.rstrip("."), self
        for child_name, child in self._modules.items():
            yield from child.named_modules(prefix=f"{prefix}{child_name}.")

    def modules(self) -> list["Module"]:
        return [m for _, m in self.named_modules()]

    def children(self) -> list["Module"]:
        return list(self._modules.values())

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name, buf in self._buffers.items():
            yield (f"{prefix}{name}", buf)
        for child_name, child in self._modules.items():
            yield from child.named_buffers(prefix=f"{prefix}{child_name}.")

    # ------------------------------------------------------------------ #
    # Mode switching
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------ #
    # State dict
    # ------------------------------------------------------------------ #
    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        state: "OrderedDict[str, np.ndarray]" = OrderedDict()
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buf in self.named_buffers():
            state[name] = np.asarray(buf).copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray], strict: bool = True) -> None:
        own_params = dict(self.named_parameters())
        own_buffers = {name: None for name, _ in self.named_buffers()}
        missing = []
        for name, param in own_params.items():
            if name in state:
                if param.data.shape != np.asarray(state[name]).shape:
                    raise ValueError(
                        f"shape mismatch for {name!r}: "
                        f"{param.data.shape} vs {np.asarray(state[name]).shape}"
                    )
                param.data[...] = state[name]
            elif strict:
                missing.append(name)
        # Buffers are restored by walking the module tree again so nested
        # modules update their registered arrays.
        for mod_name, module in self.named_modules():
            for buf_name in list(module._buffers):
                full_name = f"{mod_name}.{buf_name}" if mod_name else buf_name
                if full_name in state:
                    module.set_buffer(buf_name, state[full_name])
                elif strict and full_name in own_buffers:
                    missing.append(full_name)
        if strict and missing:
            raise KeyError(f"missing keys in state dict: {missing}")

    # ------------------------------------------------------------------ #
    # Call protocol
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def extra_repr(self) -> str:
        return ""

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        lines = [f"{type(self).__name__}({self.extra_repr()})"]
        for name, child in self._modules.items():
            child_repr = repr(child).splitlines()
            lines.append(f"  ({name}): {child_repr[0]}")
            lines.extend(f"  {line}" for line in child_repr[1:])
        return "\n".join(lines)
