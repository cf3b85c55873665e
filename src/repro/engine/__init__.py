"""Integer-only graph inference engine.

Lowers quantized graphs (TQT power-of-2 thresholds) into linear plans of
pure integer kernels — im2col conv / matmul accumulation, bit-shift
requantization, fused bias + ReLU/ReLU6 — with preallocated buffer reuse.
One oracle, one executor: the lowered plan, step-interpreted with int64
accumulation, is the reference; the optimizer pass pipeline (epilogue
fusion, im2col elimination, weight prepacking) rewrites it into a plan that
executes only as a compiled **tape** — a flat instruction program with
fused elementwise chains whose kernel variants one autotuner arbitrates.
Around them: megabatch coalescing of partial fills, a profiler
that reports the executor an engine actually runs, and a bit-exactness
parity checker against the float fake-quant simulation.
"""

from .counters import PIPELINE_COUNTERS, PipelineCounters
from .kernels import (
    EXACT_ACCUMULATOR_LIMIT,
    FLOAT32_ACCUMULATOR_LIMIT,
    INT32_ACCUMULATOR_LIMIT,
    ConvGeometry,
)
from .plan import (
    CompiledEngine,
    EngineOutput,
    ExecutionPlan,
    PlanError,
    PlanProfile,
    QuantStage,
    StepTiming,
    ValueMeta,
    lower_graph,
)
from .optimizer import (
    ElementwiseChain,
    OptimizationReport,
    OptimizedPlan,
    optimize_plan,
)
from .program import TapeProgram, compile_tape
from .runner import BatchedRunner, pack_partial_fills
from .parity import (
    ParityReport,
    check_engine_parity,
    check_plan_parity,
    simulate_reference,
)

__all__ = [
    "PIPELINE_COUNTERS",
    "PipelineCounters",
    "EXACT_ACCUMULATOR_LIMIT",
    "FLOAT32_ACCUMULATOR_LIMIT",
    "INT32_ACCUMULATOR_LIMIT",
    "ConvGeometry",
    "CompiledEngine",
    "EngineOutput",
    "ExecutionPlan",
    "PlanError",
    "PlanProfile",
    "QuantStage",
    "StepTiming",
    "ValueMeta",
    "lower_graph",
    "ElementwiseChain",
    "OptimizationReport",
    "OptimizedPlan",
    "optimize_plan",
    "TapeProgram",
    "compile_tape",
    "BatchedRunner",
    "pack_partial_fills",
    "ParityReport",
    "check_engine_parity",
    "check_plan_parity",
    "simulate_reference",
]
