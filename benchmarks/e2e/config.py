"""The benchmark's fixed configuration.  README.md records why each value.

Rates and sizes are constants, never re-derived per run, so a parent commit
and a change are offered identical load.
"""

#: pinned to 1 before NumPy loads: one BLAS thread per engine call
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

MODELS = ("mobilenet_v1_nano", "resnet_nano")
IMAGE_SIZE = 32
BATCH_SIZE = 8
NUM_CLASSES = 10

#: quantization/compile seed; ``--seed`` only ever generates inputs
COMPILE_SEED = 0

SLO_S = 0.100
MAX_WAIT_S = 5e-3
FLEET_WORKERS = 1
STEADY_RPS = 800.0
OVERLOAD_RPS = 4000.0
IMAGE_POOL = 64              # images per model shared by every request
ORACLE_SAMPLE = 256          # completed requests re-run on the oracle

OFFLINE_POOL = 8             # input batches per model cycled by the sweeps

TRAIN_MODEL = "mobilenet_v1_nano"
TRAIN_SET = 256
VAL_SET = 64
CALIBRATION_SAMPLES = 32

ROUNDS = 3                   # set-up + warm-up + window, per run
WARMUP_SHARE = 0.1           # untimed warm-up, as a share of --seconds

#: traced phase, as shares of --seconds
TRACE_SERVE_SHARE = 0.2      # each of the untraced and traced serve windows
TRACE_SAMPLE_RATE = 0.1
TRACE_TRAIN_STEPS = 30
PACER_LATE_LIMIT_MS = 10.0
SPAN_COVERAGE_MIN = 0.9

WORKLOADS = ("engine_offline", "fleet_steady", "fleet_overload", "tqt_retrain")
#: offered rate of the traced serve; workloads without serving reuse steady
SERVE_RPS = {"engine_offline": STEADY_RPS, "fleet_steady": STEADY_RPS,
             "fleet_overload": OVERLOAD_RPS, "tqt_retrain": STEADY_RPS}


def constants() -> dict:
    """The values above, for the provenance block of every result."""
    return {name: value for name, value in globals().items()
            if name.isupper()}
