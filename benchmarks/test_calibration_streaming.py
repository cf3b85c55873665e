"""Layer-by-layer calibration: the streaming pass equals the whole-graph procedure.

The paper calibrates activation thresholds layer by layer in topological
order, each against already-quantized inputs (Section 4.2).
``repro.graph.calibrate_activations`` does it in one streaming walk; the
reference in ``tests/calibration_reference.py`` re-runs the whole graph once
per quantizer.  Tier-1 checks the two agree at 8 px; this bench checks every
registry model at ``deploy.compile``'s budget (16 samples, batches of 8) at
32 px and prints both calibration times per model.

Run by path: ``python -m pytest benchmarks/test_calibration_streaming.py -q -s``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from repro.analysis import format_table
from repro.data import SyntheticImageNet, sample_calibration_batches
from repro.graph import clone_graph, quantize_graph, quantize_static, transforms
from repro.models import MODEL_REGISTRY, available_models
from repro.models.inception import avgpool_channel_hints

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from calibration_reference import whole_graph_thresholds  # noqa: E402

IMAGE_SIZE, SAMPLES, BATCH = 32, 16, 8


def test_streaming_calibration_equals_whole_graph_reference():
    rows, mismatched = [], []
    for name in available_models():
        graph = MODEL_REGISTRY[name].build(num_classes=10, seed=0)
        graph.eval()
        transforms.run_default_optimizations(graph, channel_hints=avgpool_channel_hints(graph))
        dataset = SyntheticImageNet(num_classes=10, image_size=IMAGE_SIZE, train_size=SAMPLES,
                                    val_size=SAMPLES, seed=0)
        batches = sample_calibration_batches(dataset, num_samples=SAMPLES, batch_size=BATCH,
                                             seed=0)
        reference = clone_graph(graph)
        start = time.perf_counter()
        streamed = quantize_static(graph, batches, copy=False)
        streamed_s = time.perf_counter() - start
        quantize_graph(reference, streamed.scheme)
        start = time.perf_counter()
        expected = whole_graph_thresholds(reference, batches)
        reference_s = time.perf_counter() - start
        if streamed.calibration_thresholds != expected:
            mismatched.append(name)
        rows.append([name, str(len(expected)), f"{streamed_s:.3f}", f"{reference_s:.3f}"])
    headers = ["model", "quantizers", "quantize_static s", "whole-graph calibrate s"]
    print("\n" + format_table(headers, rows,
                              title=f"Calibration at {SAMPLES} samples / {IMAGE_SIZE} px"))
    assert not mismatched, f"thresholds differ from the whole-graph reference: {mismatched}"
