"""Graffitist-style graph IR, optimization transforms and quantization modes.

Fixed-point execution of a quantized graph is not here: :mod:`repro.engine`
lowers the whole graph to integer steps, and its step-interpreted reference
plan is the one integer oracle the fake-quant graph is checked against
(Section 4.2).
"""

from .ir import GraphIR, GraphBuilder, Node, OpKind
from .quantize import (
    quantize_graph,
    clone_graph,
    QuantizationReport,
    collect_activation_quantizers,
    collect_tqt_quantizers,
    split_parameters,
)
from .modes import (
    QuantizedModel,
    RetrainMode,
    calibrate_activations,
    quantize_static,
    prepare_retrain,
)
from . import transforms

__all__ = [
    "GraphIR",
    "GraphBuilder",
    "Node",
    "OpKind",
    "quantize_graph",
    "clone_graph",
    "QuantizationReport",
    "collect_activation_quantizers",
    "collect_tqt_quantizers",
    "split_parameters",
    "QuantizedModel",
    "RetrainMode",
    "calibrate_activations",
    "quantize_static",
    "prepare_retrain",
    "transforms",
]
