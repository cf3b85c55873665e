"""Shared fixtures for the benchmark harness.

Each benchmark module regenerates one table or figure of the paper at the
scaled-down (synthetic-data, nano-model) operating point and

* prints the reproduced rows/series (run ``pytest benchmarks -s`` to see
  them live),
* writes the same report under ``benchmarks/reports/`` so the numbers quoted
  in ``EXPERIMENTS.md`` can be regenerated,
* asserts the paper's *qualitative* claims (who wins, direction of effects),
* times a representative kernel through pytest-benchmark.

Heavy experiments (FP32 pre-training + quantized retraining) run once in
session-scoped fixtures and are shared by the table/figure benches that need
them, mirroring how the paper reuses one pre-trained checkpoint per network.
"""

from __future__ import annotations

import os

# Pin BLAS threading BEFORE numpy loads so every benchmark measures
# single-threaded kernels (the serving thread pool is the only parallelism)
# and CI timings stop drifting with the runner's core count.  The CI
# workflow exports the same variables at the job level as a belt-and-braces
# guarantee.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

from pathlib import Path  # noqa: E402  (imports follow the BLAS pinning)

import pytest  # noqa: E402

from repro.training import ExperimentConfig, ExperimentRunner  # noqa: E402

REPORT_DIR = Path(__file__).parent / "reports"

# One scaled-down operating point shared by all accuracy experiments.
BENCH_SETTINGS = dict(
    num_classes=10,
    image_size=12,
    train_size=240,
    val_size=96,
    batch_size=16,
    noise_level=0.35,
    pretrain_epochs=24,
    retrain_epochs=3,
    calibration_samples=24,
)

# Per-channel scale diversity of the depthwise blocks; chosen so the nano
# MobileNets show the paper's calibrate-only collapse while still training to
# a usable FP32 accuracy (see DESIGN.md, substitution table).
MOBILENET_SPREAD = 64.0


def pytest_runtest_protocol(item, nextitem):
    """Automatic rerun of failed benches when ``BENCH_RETRIES`` is set.

    Wall-clock benchmarks (real thread pools, spawned worker processes) can
    flake on loaded shared runners; CI exports ``BENCH_RETRIES=1`` so one
    transient failure retries once before the job goes red.  Unset or ``0``
    (the local default) leaves pytest's stock protocol untouched, so flakes
    stay visible during development.  Only the final attempt's reports are
    logged; earlier failed attempts are announced on stdout.
    """
    retries = int(os.environ.get("BENCH_RETRIES", "0") or 0)
    if retries <= 0:
        return None
    from _pytest.runner import runtestprotocol

    ihook = item.ihook
    for attempt in range(retries + 1):
        ihook.pytest_runtest_logstart(nodeid=item.nodeid, location=item.location)
        reports = runtestprotocol(item, nextitem=nextitem, log=False)
        if not any(report.failed for report in reports) or attempt == retries:
            for report in reports:
                ihook.pytest_runtest_logreport(report=report)
            ihook.pytest_runtest_logfinish(nodeid=item.nodeid,
                                           location=item.location)
            return True
        ihook.pytest_runtest_logfinish(nodeid=item.nodeid, location=item.location)
        print(f"\n[bench-retry] {item.nodeid} failed on attempt "
              f"{attempt + 1}/{retries + 1}; retrying")
        # Drop cached fixture state so the rerun sets up from scratch
        # (session-scoped fixtures survive, mirroring a plain rerun).
        if hasattr(item, "_initrequest"):
            item._initrequest()
    return True


@pytest.fixture(scope="session")
def report_writer():
    REPORT_DIR.mkdir(exist_ok=True)

    def write(name: str, text: str) -> None:
        (REPORT_DIR / f"{name}.txt").write_text(text + "\n")
        print("\n" + text)

    return write


def _make_runner(model: str, seed: int = 1, **model_kwargs) -> ExperimentRunner:
    config = ExperimentConfig(model=model, seed=seed, model_kwargs=model_kwargs,
                              **BENCH_SETTINGS)
    runner = ExperimentRunner(config)
    runner.pretrain_fp32()
    return runner


@pytest.fixture(scope="session")
def mobilenet_v1_runner() -> ExperimentRunner:
    return _make_runner("mobilenet_v1_nano", channel_range_spread=MOBILENET_SPREAD)


@pytest.fixture(scope="session")
def mobilenet_v2_runner() -> ExperimentRunner:
    return _make_runner("mobilenet_v2_nano", channel_range_spread=MOBILENET_SPREAD)


@pytest.fixture(scope="session")
def vgg_runner() -> ExperimentRunner:
    return _make_runner("vgg_nano")


@pytest.fixture(scope="session")
def darknet_runner() -> ExperimentRunner:
    return _make_runner("darknet_nano")


@pytest.fixture(scope="session")
def mobilenet_v1_tqt_int8(mobilenet_v1_runner):
    """TQT (wt,th) INT8 retraining of the MobileNet v1 nano, with threshold tracking."""
    trial, result = mobilenet_v1_runner.run_retrain("wt,th", track_thresholds=True)
    return {"trial": trial, "result": result,
            "graph": mobilenet_v1_runner.last_quantized_model.graph}


@pytest.fixture(scope="session")
def mobilenet_v1_tqt_int4(mobilenet_v1_runner):
    """TQT (wt,th) INT4 (4/8) retraining of the MobileNet v1 nano."""
    from repro.quant import INT4_PRECISION

    trial, result = mobilenet_v1_runner.run_retrain("wt,th", INT4_PRECISION,
                                                    track_thresholds=True)
    return {"trial": trial, "result": result,
            "graph": mobilenet_v1_runner.last_quantized_model.graph}
