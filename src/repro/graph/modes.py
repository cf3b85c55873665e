"""Quantization modes: static (calibrate-only) and retrain (Section 4.2).

* **Static mode** — thresholds come purely from calibration statistics:
  weights use MAX, activations minimize the local KL-J distance, layer by
  layer in strict topological order so every layer is calibrated against
  already-quantized inputs.  Nothing is trained.  One streaming pass
  (:func:`calibrate_activations`) does this for every caller, so
  ``deploy.compile`` deploys the same thresholds the tables evaluate.
* **Retrain mode** — produces a quantized *training* graph.  In ``wt`` mode
  only the weights train (thresholds stay at their calibrated values); in
  ``wt,th`` mode (TQT) weights and log-thresholds train jointly on the
  global loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal

import numpy as np

from ..autograd import Tensor, no_grad
from ..quant.config import LayerPrecision
from ..quant.qmodules import ActivationQuantizer, QuantScheme
from .ir import GraphIR, OpKind
from .quantize import (
    QuantizationReport,
    clone_graph,
    collect_activation_quantizers,
    quantize_graph,
)

__all__ = [
    "RetrainMode",
    "QuantizedModel",
    "calibrate_activations",
    "quantize_static",
    "prepare_retrain",
]

RetrainMode = Literal["static", "wt", "wt,th"]


@dataclass
class QuantizedModel:
    """A quantized graph plus the metadata the trainer needs."""

    graph: GraphIR
    scheme: QuantScheme
    mode: RetrainMode
    report: QuantizationReport
    calibration_thresholds: dict[str, float]


def calibrate_activations(graph: GraphIR,
                          calibration_batches: Iterable[np.ndarray]) -> dict[str, float]:
    """Calibrate every activation quantizer layer by layer (Section 4.2).

    One streaming walk in topological order: each node's non-bypassed
    quantizers are calibrated one at a time, in the order the node applies
    them, on the node's cached inputs (already quantized upstream), and only
    then are the node's outputs computed with every threshold locked in.  A
    node's outputs are freed after its last consumer has run.  Bypassed
    quantizers (the 8-bit stage a leaky ReLU suppresses) stay bypassed.

    Returns a mapping from quantizer path to the calibrated raw threshold.
    """
    batches = [Tensor(batch) for batch in calibration_batches]
    if not batches:
        raise ValueError("calibration requires at least one batch")
    paths = {id(q): path for path, q in collect_activation_quantizers(graph).items()}
    order = graph.topological_order()
    last_use = {name: index for index, node in enumerate(order) for name in node.inputs}
    outputs: dict[str, list[Tensor]] = {}
    thresholds: dict[str, float] = {}
    graph.eval()
    with no_grad():
        for index, node in enumerate(order):
            if node.op == OpKind.INPUT:
                outputs[node.name] = batches
                continue
            per_batch = list(zip(*(outputs[name] for name in node.inputs)))
            for module in (node.module.modules() if node.module is not None else ()):
                if isinstance(module, ActivationQuantizer) and module.mode != "bypass":
                    module.start_calibration()
                    for args in per_batch:
                        graph._execute(node, args)
                    thresholds[paths[id(module)]] = module.finalize_calibration()
            if node.name in last_use:
                outputs[node.name] = [graph._execute(node, args) for args in per_batch]
            for name in set(node.inputs):
                if last_use[name] == index:
                    del outputs[name]
    graph.train()
    return thresholds


def quantize_static(graph: GraphIR, calibration_batches: Iterable[np.ndarray],
                    precision: LayerPrecision | None = None,
                    method: str = "tqt", sequential: bool = True,
                    copy: bool = True) -> QuantizedModel:
    """Static quantization: MAX weights, KL-J activations, no training.

    The input graph should be the FP32 graph *after* the optimization passes
    (:func:`repro.graph.transforms.run_default_optimizations`).
    ``sequential`` is ignored (calibration is always layer by layer); it is
    deleted by the benchmark PR, ROADMAP 2(a).
    """
    target = clone_graph(graph) if copy else graph
    scheme = QuantScheme(
        method=method,
        precision=precision or LayerPrecision(),
        train_thresholds=False,
        weight_init="max",
        activation_init="kl-j",
    )
    report = quantize_graph(target, scheme)
    thresholds = calibrate_activations(target, calibration_batches)
    return QuantizedModel(graph=target, scheme=scheme, mode="static",
                          report=report, calibration_thresholds=thresholds)


def prepare_retrain(graph: GraphIR, calibration_batches: Iterable[np.ndarray],
                    mode: RetrainMode = "wt,th",
                    precision: LayerPrecision | None = None,
                    method: str = "tqt", copy: bool = True) -> QuantizedModel:
    """Build a quantized training graph for wt-only or wt+th (TQT) retraining.

    Threshold initialization follows Table 2: weights use MAX for wt-only
    mode and 3SD for wt+th mode; activations are always KL-J calibrated.
    """
    if mode not in ("wt", "wt,th"):
        raise ValueError(f"retrain mode must be 'wt' or 'wt,th', got {mode!r}")
    target = clone_graph(graph) if copy else graph
    train_thresholds = mode == "wt,th"
    scheme = QuantScheme(
        method=method,
        precision=precision or LayerPrecision(),
        train_thresholds=train_thresholds,
        weight_init="3sd" if train_thresholds else "max",
        activation_init="kl-j",
    )
    report = quantize_graph(target, scheme)
    thresholds = calibrate_activations(target, calibration_batches)
    return QuantizedModel(graph=target, scheme=scheme, mode=mode,
                          report=report, calibration_thresholds=thresholds)
