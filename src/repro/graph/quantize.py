"""Quantization-insertion pass: rewrite an optimized FP32 graph into a
quantized training/inference graph (Section 4.2–4.3).

The pass walks the graph in topological order and applies the layer-topology
rules of Section 4.3:

* compute layers (conv / depthwise conv / matmul) get weight, bias and
  output quantizers; when the sole consumer is a ReLU/ReLU6 the activation
  is fused so the 8-bit output stage happens *after* it and uses an unsigned
  range;
* eltwise-add inputs share a merged scale and the result is re-quantized;
* concat inputs share a merged scale and the op is lossless;
* leaky-relu keeps 16-bit internal precision and suppresses the preceding
  layer's 8-bit stage;
* the primary input is quantized explicitly;
* first and last compute layers never drop below 8-bit weights, so the whole
  network maps onto the same fixed-point hardware (Section 6.1, footnote 8).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from ..nn import Conv2d, LeakyReLU, Linear, Parameter
from ..quant.qmodules import (
    ActivationQuantizer,
    QuantizedAdd,
    QuantizedConcat,
    QuantizedConv2d,
    QuantizedInput,
    QuantizedLeakyReLU,
    QuantizedLinear,
    QuantScheme,
)
from ..quant.tqt import TQTQuantizer
from .ir import GraphIR, Node, OpKind

__all__ = [
    "clone_graph",
    "quantize_graph",
    "QuantizationReport",
    "collect_activation_quantizers",
    "collect_tqt_quantizers",
    "split_parameters",
]


def clone_graph(graph: GraphIR) -> GraphIR:
    """Deep copy of a graph (modules, parameters and edges)."""
    return copy.deepcopy(graph)


@dataclass
class QuantizationReport:
    """What the quantization pass did, for logging and tests."""

    compute_layers: int = 0
    fused_activations: int = 0
    add_layers: int = 0
    concat_layers: int = 0
    leaky_relu_layers: int = 0
    first_layer: str | None = None
    last_layer: str | None = None
    weight_bits: dict[str, int] = field(default_factory=dict)


def _activation_kind(graph: GraphIR, node: Node) -> tuple[str, Node | None]:
    """Return the fused activation kind and the activation node to remove."""
    consumers = graph.consumers(node.name)
    if len(consumers) != 1:
        return "none", None
    consumer = consumers[0]
    if consumer.op == OpKind.RELU:
        return "relu", consumer
    if consumer.op == OpKind.RELU6:
        return "relu6", consumer
    return "none", None


def quantize_graph(graph: GraphIR, scheme: QuantScheme,
                   quantize_input: bool = True) -> QuantizationReport:
    """Rewrite ``graph`` in place into its quantized form.

    Returns a :class:`QuantizationReport` describing the rewrites.
    """
    report = QuantizationReport()
    order = graph.topological_order()
    compute_nodes = [n for n in order if n.op in OpKind.COMPUTE_KINDS]
    if not compute_nodes:
        raise ValueError("graph has no compute layers to quantize")
    first_name, last_name = compute_nodes[0].name, compute_nodes[-1].name
    report.first_layer, report.last_layer = first_name, last_name

    # --- compute layers ------------------------------------------------ #
    for node in compute_nodes:
        if node.name not in graph.nodes:
            continue
        weight_bits = scheme.precision.weight_bits
        if node.name in (first_name, last_name):
            weight_bits = max(weight_bits, scheme.precision.min_first_last_weight_bits)
        activation, act_node = _activation_kind(graph, node)
        module = node.module
        if isinstance(module, Conv2d):
            quantized = QuantizedConv2d(module, scheme, activation=activation,
                                        weight_bits=weight_bits, name=node.name)
            new_op = OpKind.QUANT_CONV
        elif isinstance(module, Linear):
            quantized = QuantizedLinear(module, scheme, activation=activation,
                                        weight_bits=weight_bits, name=node.name)
            new_op = OpKind.QUANT_LINEAR
        else:
            raise TypeError(f"compute node {node.name!r} holds unsupported module {type(module)}")
        graph.replace_node(node.name, Node(name=node.name, op=new_op, module=quantized,
                                           inputs=list(node.inputs), attrs=dict(node.attrs)))
        report.compute_layers += 1
        report.weight_bits[node.name] = weight_bits
        if act_node is not None:
            graph.remove_node(act_node.name, rewire_to=node.name)
            report.fused_activations += 1

    # --- eltwise add ----------------------------------------------------- #
    for node in list(graph.nodes_of_kind(OpKind.ADD)):
        activation, act_node = _activation_kind(graph, node)
        quantized = QuantizedAdd(scheme, activation=activation, name=node.name)
        graph.replace_node(node.name, Node(name=node.name, op=OpKind.QUANT_ADD,
                                           module=quantized, inputs=list(node.inputs),
                                           attrs=dict(node.attrs)))
        report.add_layers += 1
        if act_node is not None:
            graph.remove_node(act_node.name, rewire_to=node.name)
            report.fused_activations += 1

    # --- concat ----------------------------------------------------------- #
    for node in list(graph.nodes_of_kind(OpKind.CONCAT)):
        quantized = QuantizedConcat(scheme, axis=node.attrs.get("axis", 1), name=node.name)
        graph.replace_node(node.name, Node(name=node.name, op=OpKind.QUANT_CONCAT,
                                           module=quantized, inputs=list(node.inputs),
                                           attrs=dict(node.attrs)))
        report.concat_layers += 1

    # --- leaky relu -------------------------------------------------------- #
    for node in list(graph.nodes_of_kind(OpKind.LEAKY_RELU)):
        slope = node.module.negative_slope if isinstance(node.module, LeakyReLU) else 0.1
        quantized = QuantizedLeakyReLU(scheme, negative_slope=slope, name=node.name)
        graph.replace_node(node.name, Node(name=node.name, op=OpKind.QUANT_LEAKY_RELU,
                                           module=quantized, inputs=list(node.inputs),
                                           attrs=dict(node.attrs)))
        report.leaky_relu_layers += 1
        # Skip the 8-bit output stage of the producing compute layer: the
        # leaky relu quantizes its input at 16 bits itself (Section 4.3).
        for producer_name in node.inputs:
            producer = graph.nodes.get(producer_name)
            if producer is not None and producer.op in (OpKind.QUANT_CONV, OpKind.QUANT_LINEAR):
                producer.module.output_quantizer.set_mode("bypass")

    # --- primary input ------------------------------------------------------ #
    if quantize_input:
        for input_name in list(graph.input_names):
            node_name = f"{input_name}__quant"
            if node_name in graph.nodes:
                continue
            graph.insert_after(input_name, Node(name=node_name, op=OpKind.QUANTIZE,
                                                module=QuantizedInput(scheme, name=node_name)))

    graph.validate()
    return report


# ---------------------------------------------------------------------- #
# Introspection helpers used by calibration, the trainer and the freezer
# ---------------------------------------------------------------------- #
def collect_activation_quantizers(graph: GraphIR) -> dict[str, ActivationQuantizer]:
    """All :class:`ActivationQuantizer` modules in the graph, keyed by path."""
    found: dict[str, ActivationQuantizer] = {}
    for name, module in graph.named_modules():
        if isinstance(module, ActivationQuantizer):
            found[name] = module
    return found


def collect_tqt_quantizers(graph: GraphIR, trainable_only: bool = False) -> dict[str, TQTQuantizer]:
    """All TQT quantizers in the graph (weights, activations, biases)."""
    found: dict[str, TQTQuantizer] = {}
    for name, module in graph.named_modules():
        if isinstance(module, TQTQuantizer):
            if trainable_only and not module.trainable:
                continue
            found[name] = module
    return found


def split_parameters(graph: GraphIR) -> tuple[list[Parameter], list[Parameter]]:
    """Split graph parameters into ``(weights, thresholds)``.

    Threshold parameters are the learnable quantizer parameters (``log2_t``
    for TQT, ``min/max`` for FakeQuant); everything else
    (convolution weights, biases, batch-norm affine parameters) belongs to
    the weight group.  The trainer gives the two groups the different
    learning rates / schedules of Section 5.2.
    """
    threshold_ids: set[int] = set()
    threshold_params: list[Parameter] = []
    for _, module in graph.named_modules():
        param_names = ()
        if module.__class__.__name__ == "TQTQuantizer":
            param_names = ("log2_t",)
        elif module.__class__.__name__ == "FakeQuantizer":
            param_names = ("min_val", "max_val")
        for attr in param_names:
            param = getattr(module, attr)
            if id(param) not in threshold_ids:
                threshold_ids.add(id(param))
                threshold_params.append(param)
    weight_params = [p for p in graph.parameters() if id(p) not in threshold_ids]
    # De-duplicate shared weights while preserving order.
    seen: set[int] = set()
    unique_weights: list[Parameter] = []
    for param in weight_params:
        if id(param) not in seen:
            seen.add(id(param))
            unique_weights.append(param)
    return unique_weights, threshold_params
