"""Layer-level graph IR and functional builder (the Graffitist substrate).

The original Graffitist operates on TensorFlow GraphDefs.  Here the model
zoo builds networks through :class:`GraphBuilder` (a Keras-functional-style
API) into a :class:`GraphIR`: a DAG of named :class:`Node` objects, each
holding an op kind, an optional executable ``repro.nn`` module and its input
edges.  The IR is directly executable (``GraphIR`` is a ``Module``), and the
transform passes in :mod:`repro.graph.transforms` rewrite it in place before
the quantization pass converts nodes into the quantized modules of
:mod:`repro.quant.qmodules`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Sequence

from ..autograd import Tensor, concatenate
from ..nn import Module

__all__ = ["Node", "GraphIR", "GraphBuilder", "OpKind"]


class OpKind:
    """String constants for the op kinds the transforms recognise."""

    INPUT = "input"
    CONV = "conv"
    DEPTHWISE_CONV = "depthwise_conv"
    LINEAR = "linear"
    BATCHNORM = "batchnorm"
    RELU = "relu"
    RELU6 = "relu6"
    LEAKY_RELU = "leaky_relu"
    MAXPOOL = "maxpool"
    AVGPOOL = "avgpool"
    GLOBAL_AVGPOOL = "global_avgpool"
    FLATTEN = "flatten"
    ADD = "add"
    CONCAT = "concat"
    IDENTITY = "identity"
    DROPOUT = "dropout"
    QUANTIZE = "quantize"
    QUANT_CONV = "quant_conv"
    QUANT_LINEAR = "quant_linear"
    QUANT_ADD = "quant_add"
    QUANT_CONCAT = "quant_concat"
    QUANT_LEAKY_RELU = "quant_leaky_relu"

    COMPUTE_KINDS = (CONV, DEPTHWISE_CONV, LINEAR)
    ACTIVATION_KINDS = (RELU, RELU6)
    PASSTHROUGH_KINDS = (IDENTITY, DROPOUT)


@dataclass
class Node:
    """One vertex of the graph IR.

    Attributes
    ----------
    name: unique node name.
    op: op kind (see :class:`OpKind`).
    module: optional executable module implementing the op.
    inputs: names of producer nodes, in argument order.
    attrs: op-specific attributes (e.g. ``axis`` for concat).
    """

    name: str
    op: str
    module: Module | None = None
    inputs: list[str] = field(default_factory=list)
    attrs: dict = field(default_factory=dict)

    def copy(self) -> "Node":
        return Node(name=self.name, op=self.op, module=self.module,
                    inputs=list(self.inputs), attrs=dict(self.attrs))


class GraphIR(Module):
    """Executable DAG of layers.

    The graph owns its nodes in insertion order; :meth:`topological_order`
    re-derives execution order from the edges so transforms may insert nodes
    anywhere.  Parameters of node modules are exposed through the standard
    ``Module`` traversal so optimizers and the trainer work unchanged.
    """

    def __init__(self, name: str = "graph") -> None:
        super().__init__()
        self.graph_name = name
        self.nodes: "OrderedDict[str, Node]" = OrderedDict()
        self.input_names: list[str] = []
        self.output_name: str | None = None

    # ------------------------------------------------------------------ #
    # Construction / mutation
    # ------------------------------------------------------------------ #
    def add_node(self, node: Node) -> Node:
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        if node.op == OpKind.INPUT:
            self.input_names.append(node.name)
        self._register_module(node)
        return node

    def _register_module(self, node: Node) -> None:
        if node.module is not None:
            attr_name = "node_" + node.name.replace("/", "_").replace(".", "_").replace("-", "_")
            setattr(self, attr_name, node.module)

    def _unregister_module(self, node: Node) -> None:
        attr_name = "node_" + node.name.replace("/", "_").replace(".", "_").replace("-", "_")
        if attr_name in self._modules:
            del self._modules[attr_name]
            object.__delattr__(self, attr_name)

    def remove_node(self, name: str, rewire_to: str | None = None) -> None:
        """Remove a node; consumers are rewired to ``rewire_to`` (or to the
        removed node's single input when not given)."""
        node = self.nodes[name]
        if rewire_to is None:
            if len(node.inputs) != 1:
                raise ValueError(
                    f"cannot remove {name!r} without rewire_to: it has {len(node.inputs)} inputs"
                )
            rewire_to = node.inputs[0]
        for other in self.nodes.values():
            other.inputs = [rewire_to if i == name else i for i in other.inputs]
        if self.output_name == name:
            self.output_name = rewire_to
        self._unregister_module(node)
        del self.nodes[name]

    def replace_node(self, name: str, new_node: Node) -> None:
        """Swap the implementation of a node, keeping its name and consumers."""
        if new_node.name != name:
            raise ValueError("replacement node must keep the original name")
        old = self.nodes[name]
        self._unregister_module(old)
        self.nodes[name] = new_node
        self._register_module(new_node)

    def insert_after(self, producer: str, node: Node) -> Node:
        """Insert ``node`` between ``producer`` and all of its consumers."""
        consumers = self.consumers(producer)
        self.add_node(node)
        node.inputs = [producer]
        for consumer in consumers:
            if consumer.name == node.name:
                continue
            consumer.inputs = [node.name if i == producer else i for i in consumer.inputs]
        if self.output_name == producer:
            self.output_name = node.name
        return node

    def set_output(self, name: str) -> None:
        if name not in self.nodes:
            raise KeyError(name)
        self.output_name = name

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def consumers(self, name: str) -> list[Node]:
        return [node for node in self.nodes.values() if name in node.inputs]

    def producers(self, name: str) -> list[Node]:
        return [self.nodes[i] for i in self.nodes[name].inputs]

    def nodes_of_kind(self, *kinds: str) -> list[Node]:
        return [node for node in self.nodes.values() if node.op in kinds]

    def topological_order(self) -> list[Node]:
        """Kahn's algorithm over the current edges."""
        in_degree = {name: len(node.inputs) for name, node in self.nodes.items()}
        ready = [name for name, degree in in_degree.items() if degree == 0]
        order: list[Node] = []
        while ready:
            current = ready.pop(0)
            order.append(self.nodes[current])
            for consumer in self.consumers(current):
                in_degree[consumer.name] -= consumer.inputs.count(current)
                if in_degree[consumer.name] == 0:
                    ready.append(consumer.name)
        if len(order) != len(self.nodes):
            unresolved = set(self.nodes) - {n.name for n in order}
            raise RuntimeError(f"graph has a cycle or dangling inputs: {sorted(unresolved)}")
        return order

    def validate(self) -> None:
        """Check edge consistency and reachability of the output."""
        for node in self.nodes.values():
            for producer in node.inputs:
                if producer not in self.nodes:
                    raise ValueError(f"node {node.name!r} references missing input {producer!r}")
        if self.output_name is None:
            raise ValueError("graph output is not set")
        self.topological_order()

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def forward(self, x: Tensor) -> Tensor:
        if self.output_name is None:
            raise RuntimeError("graph output is not set")
        if len(self.input_names) != 1:
            raise RuntimeError("GraphIR.forward expects exactly one input node")
        values: dict[str, Tensor] = {}
        for node in self.topological_order():
            if node.op == OpKind.INPUT:
                values[node.name] = x
                continue
            args = [values[i] for i in node.inputs]
            values[node.name] = self._execute(node, args)
        return values[self.output_name]

    def _execute(self, node: Node, args: Sequence[Tensor]) -> Tensor:
        if node.module is not None:
            if node.op in (OpKind.ADD, OpKind.QUANT_ADD):
                return node.module(args[0], args[1])
            if node.op in (OpKind.CONCAT, OpKind.QUANT_CONCAT):
                return node.module(list(args))
            return node.module(args[0])
        # Structural ops without modules.
        if node.op == OpKind.ADD:
            return args[0] + args[1]
        if node.op == OpKind.CONCAT:
            return concatenate(list(args), axis=node.attrs.get("axis", 1))
        if node.op in OpKind.PASSTHROUGH_KINDS:
            return args[0]
        if node.op == OpKind.FLATTEN:
            return args[0].flatten(start_dim=node.attrs.get("start_dim", 1))
        raise RuntimeError(f"node {node.name!r} of kind {node.op!r} has no module to execute")

    # ------------------------------------------------------------------ #
    # Lowering
    # ------------------------------------------------------------------ #
    def lower_plan(self):
        """Lower this (quantized) graph into an integer execution plan.

        Convenience hook for :func:`repro.engine.lower_graph`; the graph must
        already have been through the optimization transforms and the
        quantization pass with TQT power-of-2 quantizers.
        """
        from ..engine.plan import lower_graph  # local import: engine builds on graph

        return lower_graph(self)

    # ------------------------------------------------------------------ #
    def summary(self) -> str:
        """Human-readable listing of the graph (one node per line)."""
        lines = [f"GraphIR {self.graph_name!r} ({len(self.nodes)} nodes)"]
        for node in self.topological_order():
            inputs = ", ".join(node.inputs) if node.inputs else "-"
            lines.append(f"  {node.name:<40s} {node.op:<18s} <- {inputs}")
        return "\n".join(lines)


class GraphBuilder:
    """Functional-style builder for :class:`GraphIR`.

    Example
    -------
    >>> from repro import nn
    >>> builder = GraphBuilder("tiny")
    >>> x = builder.input("images")
    >>> x = builder.layer("conv1", OpKind.CONV, nn.Conv2d(3, 8, 3, padding=1), x)
    >>> x = builder.layer("relu1", OpKind.RELU, nn.ReLU(), x)
    >>> graph = builder.build(x)
    """

    def __init__(self, name: str = "graph") -> None:
        self.graph = GraphIR(name)

    def input(self, name: str = "input") -> str:
        self.graph.add_node(Node(name=name, op=OpKind.INPUT))
        return name

    def layer(self, name: str, op: str, module: Module | None, *inputs: str, **attrs) -> str:
        self.graph.add_node(Node(name=name, op=op, module=module,
                                 inputs=list(inputs), attrs=attrs))
        return name

    def add(self, name: str, a: str, b: str) -> str:
        return self.layer(name, OpKind.ADD, None, a, b)

    def concat(self, name: str, inputs: Sequence[str], axis: int = 1) -> str:
        self.graph.add_node(Node(name=name, op=OpKind.CONCAT, module=None,
                                 inputs=list(inputs), attrs={"axis": axis}))
        return name

    def build(self, output: str) -> GraphIR:
        self.graph.set_output(output)
        self.graph.validate()
        return self.graph
