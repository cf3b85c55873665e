"""Whole-graph reference for layer-by-layer activation calibration.

The paper's procedure run literally: bypass every activation quantizer, then
lock them in one at a time in topological order, re-running the whole graph
over every calibration batch for each one.  Quantizers the quantization pass
bypassed (the 8-bit stage a leaky ReLU suppresses) stay bypassed.  The
streaming :func:`repro.graph.calibrate_activations` must reproduce these
thresholds exactly.
"""

from __future__ import annotations

from repro.autograd import Tensor, no_grad
from repro.graph import GraphIR, collect_activation_quantizers
from repro.quant import ActivationQuantizer


def whole_graph_thresholds(graph: GraphIR, batches) -> dict[str, float]:
    paths = {id(q): path for path, q in collect_activation_quantizers(graph).items()}
    ordered = [m for node in graph.topological_order() if node.module is not None
               for m in node.module.modules()
               if isinstance(m, ActivationQuantizer) and m.mode != "bypass"]
    for quantizer in ordered:
        quantizer.set_mode("bypass")
    thresholds = {}
    graph.eval()
    with no_grad():
        for quantizer in ordered:
            quantizer.start_calibration()
            for batch in batches:
                graph(Tensor(batch))
            thresholds[paths[id(quantizer)]] = quantizer.finalize_calibration()
    return thresholds
