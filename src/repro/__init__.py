"""repro — reproduction of "Trained Quantization Thresholds for Accurate and
Efficient Fixed-Point Inference of Deep Neural Networks" (Jain et al., MLSys 2020).

Sub-packages
------------
``repro.autograd``  NumPy reverse-mode autograd substrate (replaces TensorFlow).
``repro.nn``        Neural-network layers and losses.
``repro.optim``     Optimizers (SGD, NormedSGD, Adam, RMSProp) and LR schedules.
``repro.quant``     TQT quantizer, FakeQuant baseline, calibration, fixed-point
                    kernels, threshold freezing.
``repro.graph``     Graffitist-style graph IR, optimization transforms and
                    static/retrain quantization modes.
``repro.engine``    Integer-only inference engine: plan lowering, batched
                    serving runner, bit-exactness parity checks.
``repro.serving``   Multi-model fleet server: dynamic batching, LRU plan cache,
                    SLO admission control, workload scenarios, serving metrics.
``repro.faults``    Deterministic fault injection (seeded crash/hang/error
                    schedules), retry/supervision policies and per-model
                    circuit breakers for the fleet.
``repro.telemetry`` Request-scoped tracing (Chrome trace-event export),
                    tape-level profiling spans, Prometheus text exposition and
                    the metrics time-series reduction.
``repro.deploy``    One compile-and-deploy API: typed compile configs, the
                    Deployment object, persistent content-addressed plan
                    artifacts (save/load with zero recompilation).
``repro.models``    Scaled-down model zoo (VGG, ResNet, Inception, MobileNet, DarkNet).
``repro.data``      Synthetic ImageNet substitute, preprocessing, loaders.
``repro.training``  Trainer, evaluator and the Table 1/3 experiment driver.
``repro.analysis``  Toy-L2 quantizer studies, transfer curves, convergence analysis,
                    threshold-deviation statistics and report formatting.
"""

from . import autograd, nn, optim, quant, graph, engine, models, serving, data, training, analysis
from . import deploy, faults, telemetry

__version__ = "2.0.0"

__all__ = [
    "autograd",
    "nn",
    "optim",
    "quant",
    "graph",
    "engine",
    "models",
    "serving",
    "deploy",
    "faults",
    "telemetry",
    "data",
    "training",
    "analysis",
    "__version__",
]
