"""Serving scenarios — fleet server under realistic traffic shapes.

Sweeps the workload scenarios (Poisson, bursty, diurnal, heavy-tailed
arrivals) against the two batching policies (dynamic max-batch/max-wait vs.
fixed full-batch coalescing) over a two-model fleet, with measured engine
compute driving the virtual clock.  A separate deterministic pass (fixed
per-batch cost on the virtual clock, seeded workload) proves the headline
serving claim: under sparse arrivals the dynamic batcher beats full-batch
coalescing on p99 latency by an order of magnitude while admission control
sheds nothing.

Emits machine-readable ``BENCH_serving.json`` at the repo root (per
scenario × policy: percentile latency, goodput vs. shed rate, batch fill,
cache counters) so the serving trajectory is trackable across PRs, plus a
human-readable table under ``benchmarks/reports/``.
"""

from __future__ import annotations

import json
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

BENCH_JSON = Path(__file__).parent.parent / "BENCH_serving.json"

FLEET = ["lenet_nano", "mobilenet_v1_nano"]
IMAGE_SIZE = 8
BATCH = 8
MAX_WAIT_S = 5e-3
SEED = 0
COMPILE_CONFIG = CompileConfig().with_overrides(calibration_samples=8,
                                                calibration_batch_size=4)
SWEEP = ["steady_poisson", "bursty", "diurnal", "heavy_tail"]

POLICIES = {
    "dynamic": BatchingPolicy.dynamic(BATCH, MAX_WAIT_S),
    "full_batch": BatchingPolicy.full_batch(BATCH),
}


def _server(policy: BatchingPolicy, compute_time_fn=None) -> FleetServer:
    return FleetServer(FLEET, batch_size=BATCH, image_size=IMAGE_SIZE, policy=policy,
                       admission=AdmissionPolicy(max_queue_depth=128),
                       compile_config=COMPILE_CONFIG, compute_time_fn=compute_time_fn)


def _requests(scenario_name: str):
    return generate_requests(SCENARIOS[scenario_name],
                             fleet_input_shapes(FLEET, IMAGE_SIZE), seed=SEED)


def test_serving_scenarios(benchmark, report_writer):
    rows = []
    cells = {}
    for scenario_name in SWEEP:
        requests = _requests(scenario_name)
        for policy_name, policy in POLICIES.items():
            report = _server(policy).serve(requests)
            fleet = report.fleet
            latency = fleet["latency_ms"]
            per_model = report.metrics["per_model"]
            # Every cell must exercise the whole fleet (>= 2 models).
            for model in FLEET:
                assert per_model[model]["arrivals"] > 0, \
                    f"{scenario_name}: no {model} traffic generated"
            assert fleet["completed"] + fleet["shed"] == fleet["arrivals"] == len(requests)
            cells[f"{scenario_name}/{policy_name}"] = report.to_dict()
            batches = sum(per_model[m]["batches"] for m in FLEET)
            slots = sum(per_model[m]["mean_fill"] * per_model[m]["batches"] for m in FLEET)
            attainment = fleet["slo_attainment"]
            rows.append([
                scenario_name, policy_name, fleet["arrivals"], fleet["completed"],
                fleet["shed"], f"{fleet['goodput_rps']:.0f}",
                f"{latency['p50']:.2f}", f"{latency['p99']:.2f}",
                f"{attainment * 100:.0f}%" if attainment is not None else "-",
                f"{slots / batches:.1f}" if batches else "-",
            ])

    # ------------------------------------------------------------------ #
    # Deterministic acceptance pass: sparse arrivals, fixed 2ms batches.
    # ------------------------------------------------------------------ #
    fixed_cost = lambda model, fill: 2e-3
    sparse = _requests("sparse_poisson")
    dynamic = _server(POLICIES["dynamic"], compute_time_fn=fixed_cost).serve(sparse)
    full = _server(POLICIES["full_batch"], compute_time_fn=fixed_cost).serve(sparse)
    assert dynamic.shed == 0, "admission control must shed nothing on sparse traffic"
    assert dynamic.completed == full.completed == len(sparse)
    assert dynamic.latency_ms("p99") < full.latency_ms("p99") / 5, (
        f"dynamic batching p99 {dynamic.latency_ms('p99'):.2f}ms must beat "
        f"full-batch coalescing p99 {full.latency_ms('p99'):.2f}ms on sparse arrivals"
    )
    # Goodput alone can't separate the policies (both complete everything);
    # SLO attainment can: dynamic meets every 250ms deadline, full-batch
    # coalescing busts it for the majority of requests.
    assert dynamic.fleet["slo_attainment"] == 1.0
    assert full.fleet["slo_attainment"] < 0.5
    for rep, policy_name in [(dynamic, "dynamic"), (full, "full_batch")]:
        rows.append(["sparse_poisson*", policy_name, rep.fleet["arrivals"],
                     rep.completed, rep.shed, f"{rep.fleet['goodput_rps']:.0f}",
                     f"{rep.latency_ms('p50'):.2f}", f"{rep.latency_ms('p99'):.2f}",
                     f"{rep.fleet['slo_attainment'] * 100:.0f}%", "-"])

    # ------------------------------------------------------------------ #
    # Wall-clock pass: the same steady stream on a REAL dispatch thread
    # pool (execution="real") — measured throughput/latency, not virtual.
    # ------------------------------------------------------------------ #
    steady = _requests("steady_poisson")
    real_server = FleetServer(FLEET, batch_size=BATCH, image_size=IMAGE_SIZE,
                              policy=POLICIES["dynamic"],
                              admission=AdmissionPolicy(max_queue_depth=128),
                              compile_config=COMPILE_CONFIG,
                              workers=2, execution="real")
    wall = real_server.serve(steady)
    real_server.close()
    assert wall.execution == "real"
    assert wall.completed > 0 and wall.fleet["goodput_rps"] > 0
    assert wall.metrics["makespan_s"] > 0
    rows.append(["steady_poisson(wall)", "dynamic", wall.fleet["arrivals"],
                 wall.completed, wall.shed, f"{wall.fleet['goodput_rps']:.0f}",
                 f"{wall.latency_ms('p50'):.2f}", f"{wall.latency_ms('p99'):.2f}",
                 "-", "-"])

    # Open-loop pacing on the same thread-pool server: arrivals released on
    # the wall clock independent of completions.  time_scale compresses the
    # scenario clock — smaller scale = higher offered load, so the pair
    # shows the open-loop overload trajectory (latency grows, sheds appear)
    # that flood ingestion can't express.
    open_cells = {}
    for scale in (0.25, 0.05):
        open_server = FleetServer(FLEET, batch_size=BATCH, image_size=IMAGE_SIZE,
                                  policy=POLICIES["dynamic"],
                                  admission=AdmissionPolicy(max_queue_depth=128),
                                  compile_config=COMPILE_CONFIG,
                                  workers=2, execution="real")
        open_report = open_server.serve(steady, pacing="open", time_scale=scale)
        open_server.close()
        assert open_report.pacing == "open"
        assert open_report.completed + open_report.shed == len(steady)
        open_cells[f"time_scale={scale}"] = open_report.to_dict()
        rows.append([f"steady_poisson(open x{scale})", "dynamic",
                     open_report.fleet["arrivals"], open_report.completed,
                     open_report.shed, f"{open_report.fleet['goodput_rps']:.0f}",
                     f"{open_report.latency_ms('p50'):.2f}",
                     f"{open_report.latency_ms('p99'):.2f}", "-", "-"])

    # Same stream once more on the PROCESS backend: two worker processes,
    # per-process engines warmed from .rpa artifacts, codes over shared
    # memory.  This is the measured multiprocess row that sits next to the
    # virtual-clock prediction of the same scenario in BENCH_serving.json.
    proc_server = FleetServer(FLEET, batch_size=BATCH, image_size=IMAGE_SIZE,
                              policy=POLICIES["dynamic"],
                              admission=AdmissionPolicy(max_queue_depth=128),
                              compile_config=COMPILE_CONFIG,
                              workers=2, execution="real", backend="process")
    proc_wall = proc_server.serve(steady)
    # One more traced pass on the live process fleet: a 25%-sampled request
    # trace whose Chrome JSON lands next to the report tables (CI uploads it
    # as an artifact — load it in Perfetto to see the run).
    traced = proc_server.serve(
        steady, telemetry=TelemetryConfig(sample_rate=0.25))
    trace_path = Path(__file__).parent / "reports" / "trace.json"
    traced.save_trace(trace_path)
    proc_server.close()
    assert traced.trace.spans, "sampled process-backend run must record spans"
    assert proc_wall.backend == "process"
    assert proc_wall.completed > 0 and proc_wall.fleet["goodput_rps"] > 0
    rows.append(["steady_poisson(proc)", "dynamic", proc_wall.fleet["arrivals"],
                 proc_wall.completed, proc_wall.shed,
                 f"{proc_wall.fleet['goodput_rps']:.0f}",
                 f"{proc_wall.latency_ms('p50'):.2f}",
                 f"{proc_wall.latency_ms('p99'):.2f}", "-", "-"])

    report_writer("serving_scenarios", format_table(
        ["scenario", "policy", "offered", "completed", "shed", "goodput rps",
         "p50 ms", "p99 ms", "SLO met", "mean fill"],
        rows,
        title=f"Fleet serving — {' + '.join(FLEET)}, batch {BATCH}, "
              f"max_wait {MAX_WAIT_S * 1e3:.0f}ms (* = deterministic 2ms batches; "
              f"(wall) = real thread pool; (proc) = real worker processes; "
              f"(open xS) = open-loop pacing at time_scale S)",
    ))

    payload = {
        "benchmark": "serving_scenarios",
        "fleet": FLEET,
        "image_size": IMAGE_SIZE,
        "batch_size": BATCH,
        "max_wait_s": MAX_WAIT_S,
        "seed": SEED,
        "scenarios": cells,
        "sparse_deterministic": {
            "compute_time_s_per_batch": 2e-3,
            "dynamic": dynamic.to_dict(),
            "full_batch": full.to_dict(),
            "p99_improvement": full.latency_ms("p99") / dynamic.latency_ms("p99"),
        },
        "wall_clock": {
            "scenario": "steady_poisson",
            "workers": 2,
            # Virtual-clock prediction of the same scenario/policy cell, for
            # the MLSYSIM-style predicted-vs-measured comparison.
            "virtual_goodput_rps":
                cells["steady_poisson/dynamic"]["metrics"]["fleet"]["goodput_rps"],
            "thread": wall.to_dict(),
            "process": proc_wall.to_dict(),
        },
        "open_loop": {
            "scenario": "steady_poisson",
            "workers": 2,
            **open_cells,
        },
        "unix_time": time.time(),
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    # Timed kernel for pytest-benchmark trend tracking: one dynamic-policy
    # serve of the sparse stream on the deterministic clock.
    server = _server(POLICIES["dynamic"], compute_time_fn=fixed_cost)
    benchmark(lambda: server.serve(sparse))
