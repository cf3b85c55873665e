"""Telemetry overhead — disabled tracing must be (nearly) free.

The telemetry subsystem's standing promise is *zero cost when off*: a
server constructed with a default ``TelemetryConfig()`` (sample_rate=0)
routes every instrumentation point through the no-op ``NULL_TRACER``, so a
serve run must cost the same as one with no telemetry argument at all.
This benchmark measures three configurations of the same single-model
real-execution serve — no telemetry, telemetry disabled, telemetry fully
sampled — with interleaved best-of-N timing (the same noise discipline as
``test_engine_optimizer.py``) and gates the disabled-vs-baseline regression
at ``TELEMETRY_OVERHEAD_MAX_PCT`` (default 2%).

Emits ``BENCH_telemetry.json`` at the repo root;
``benchmarks/check_regression.py`` tracks
``telemetry.disabled_relative_throughput`` across PRs.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.analysis import format_table
from repro.deploy import CompileConfig
from repro.serving import (
    SCENARIOS,
    AdmissionPolicy,
    BatchingPolicy,
    FleetServer,
    TelemetryConfig,
    fleet_input_shapes,
    generate_requests,
)

BENCH_JSON = Path(__file__).parent.parent / "BENCH_telemetry.json"

MODEL = "lenet_nano"
IMAGE_SIZE = 8
BATCH = 8
SWEEPS = 7
SEED = 0
COMPILE_CONFIG = CompileConfig().with_overrides(calibration_samples=8,
                                                calibration_batch_size=4)
MAX_OVERHEAD_PCT = float(os.environ.get("TELEMETRY_OVERHEAD_MAX_PCT", "2"))

#: the three measured configurations: no telemetry argument at all, a
#: constructed-but-disabled config (the zero-cost claim under test), and
#: full sampling (informational — tracing is allowed to cost something)
CONFIGS = {
    "baseline": None,
    "disabled": TelemetryConfig(),
    "sampled": TelemetryConfig(sample_rate=1.0),
}


def test_telemetry_disabled_overhead(report_writer):
    scenario = SCENARIOS["steady_poisson"]
    requests = generate_requests(scenario,
                                 fleet_input_shapes(scenario.models, IMAGE_SIZE),
                                 seed=SEED)
    # Single-model fleet: keep the scenario's arrival process, drop the
    # other model's share of the mix.
    requests = [r for r in requests if r.model == MODEL]
    assert len(requests) >= 50, "steady_poisson must offer a real stream"

    servers = {
        key: FleetServer([MODEL], batch_size=BATCH, image_size=IMAGE_SIZE,
                         policy=BatchingPolicy.dynamic(BATCH, 2e-3),
                         admission=AdmissionPolicy(max_queue_depth=None,
                                                   slo_shed=False),
                         compile_config=COMPILE_CONFIG,
                         workers=2, execution="real", telemetry=config)
        for key, config in CONFIGS.items()
    }
    try:
        # Warm every server (engines resident, queues exercised) before any
        # timed sweep, then interleave the sweeps so shared-host load noise
        # hits all three configurations alike; best-of-N is the comparison.
        for server in servers.values():
            server.serve(requests)
        best = {key: float("inf") for key in servers}
        last_reports = {}
        for _ in range(SWEEPS):
            for key, server in servers.items():
                start = time.perf_counter()
                report = server.serve(requests)
                best[key] = min(best[key], time.perf_counter() - start)
                last_reports[key] = report
    finally:
        for server in servers.values():
            server.close()

    assert last_reports["baseline"].trace is None
    assert last_reports["disabled"].trace is None
    assert last_reports["sampled"].trace is not None
    assert last_reports["sampled"].trace.spans

    disabled_pct = (best["disabled"] / best["baseline"] - 1.0) * 100.0
    sampled_pct = (best["sampled"] / best["baseline"] - 1.0) * 100.0
    rows = [
        [key, f"{best[key] * 1e3:.1f}",
         f"{len(requests) / best[key]:.0f}",
         f"{(best[key] / best['baseline'] - 1.0) * 100.0:+.2f}%"]
        for key in CONFIGS
    ]
    report_writer("telemetry_overhead", format_table(
        ["config", "best serve ms", "req/s", "vs baseline"],
        rows,
        title=f"Telemetry overhead — {MODEL}, steady_poisson flood, "
              f"2 workers, best of {SWEEPS} interleaved sweeps "
              f"(gate: disabled <= +{MAX_OVERHEAD_PCT:.0f}%)",
    ))

    payload = {
        "benchmark": "telemetry_overhead",
        "model": MODEL,
        "image_size": IMAGE_SIZE,
        "batch_size": BATCH,
        "requests": len(requests),
        "sweeps": SWEEPS,
        "cpu_count": os.cpu_count(),
        "max_overhead_pct_gate": MAX_OVERHEAD_PCT,
        "best_serve_s": dict(best),
        "disabled_overhead_pct": disabled_pct,
        "sampled_overhead_pct": sampled_pct,
        #: >= 1.0 means disabled telemetry served at least as fast as the
        #: no-telemetry baseline; the regression tracker floors this ratio
        "disabled_relative_throughput": best["baseline"] / best["disabled"],
        "sampled_spans": len(last_reports["sampled"].trace.spans),
        "unix_time": time.time(),
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    assert disabled_pct <= MAX_OVERHEAD_PCT, (
        f"telemetry-disabled serving is {disabled_pct:+.2f}% vs the "
        f"no-telemetry baseline, above the +{MAX_OVERHEAD_PCT:.0f}% gate"
    )
