"""Goodput under chaos — the fleet's resilience benchmark.

Replays a seeded :class:`~repro.faults.FaultPlan` (worker crash + task hang
+ task errors) against the fleet server twice:

* a **deterministic virtual pass** on the discrete-event clock with fixed
  per-batch compute — the modeled supervisor pays detection + respawn costs
  and the retry policy requeues failed batches, so ``goodput_retained``
  (chaos completions over fault-free completions) is an exactly
  reproducible, machine-independent number the regression gate can hold a
  floor against;
* a **measured process-backend pass** — a live 2-process fleet takes the
  same schedule on the wall clock; worker respawn latency and chaos goodput
  are real recovery numbers.

Emits ``BENCH_faults.json`` at the repo root (gated by
``benchmarks/check_regression.py``: ``faults.goodput_retained`` must stay
>= 0.7) plus a human-readable table under ``benchmarks/reports/``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.analysis import format_table
from repro.deploy import CompileConfig
from repro.faults import FaultEvent, FaultPlan, RetryPolicy
from repro.serving import (
    AdmissionPolicy,
    BatchingPolicy,
    FleetServer,
    Scenario,
    fleet_input_shapes,
    generate_requests,
)

BENCH_JSON = Path(__file__).parent.parent / "BENCH_faults.json"

FLEET = ["lenet_nano", "mobilenet_v1_nano"]
IMAGE_SIZE = 8
BATCH = 8
SEED = 0
COMPILE_CONFIG = CompileConfig().with_overrides(calibration_samples=8,
                                                calibration_batch_size=4)
FIXED_COST = lambda model, fill: 2e-3

#: the chaos schedule: one crash, one hang past the recv deadline, a burst
#: of task errors — addressed in worker-task coordinates so both clocks and
#: both backends replay it identically
PLAN = FaultPlan(events=(
    FaultEvent("worker_crash", worker=0, task_index=1),
    FaultEvent("task_hang", worker=1, task_index=2, duration_s=5.0),
    FaultEvent("task_error", count=2),
), seed=8)
RETRY = RetryPolicy(max_attempts=3, task_timeout_s=0.75,
                    respawn_backoff_s=0.01)

GOODPUT_RETAINED_FLOOR = 0.7


def _requests():
    scenario = Scenario("chaos_bench", "poisson", duration_s=1.0,
                        model_mix=(("lenet_nano", 0.5),
                                   ("mobilenet_v1_nano", 0.5)),
                        slo_ms=None, params=dict(rate_rps=120.0))
    return generate_requests(scenario, fleet_input_shapes(FLEET, IMAGE_SIZE),
                             seed=SEED)


def _server(execution: str, **kwargs) -> FleetServer:
    return FleetServer(FLEET, batch_size=BATCH, image_size=IMAGE_SIZE,
                       policy=BatchingPolicy.dynamic(BATCH, 5e-3),
                       admission=AdmissionPolicy(max_queue_depth=None,
                                                 slo_shed=False),
                       compile_config=COMPILE_CONFIG, workers=2,
                       execution=execution, **kwargs)


def test_serving_faults(benchmark, report_writer):
    requests = _requests()

    # ------------------------------------------------------------------ #
    # Deterministic virtual pass: fault-free vs. chaos on the same clock.
    # ------------------------------------------------------------------ #
    server = _server("virtual", compute_time_fn=FIXED_COST)
    baseline = server.serve(requests)
    chaos = server.serve(requests, faults=PLAN, retry=RETRY)
    replay = server.serve(requests, faults=PLAN, retry=RETRY)
    server.close()

    assert baseline.completed == len(requests)
    # The chaos run is exactly reproducible — outcomes and makespan.
    assert chaos.metrics["makespan_s"] == replay.metrics["makespan_s"]
    assert [(o.request_id, o.status) for o in chaos.outcomes] == \
        [(o.request_id, o.status) for o in replay.outcomes]

    goodput_retained = chaos.completed / baseline.completed
    makespan_overhead = (chaos.metrics["makespan_s"]
                         / baseline.metrics["makespan_s"])
    supervisor = chaos.faults["supervisor"]
    assert goodput_retained >= GOODPUT_RETAINED_FLOOR, (
        f"chaos goodput retained {goodput_retained:.3f} fell below the "
        f"{GOODPUT_RETAINED_FLOOR} floor")
    assert supervisor["crashes"] == 1 and supervisor["timeouts"] == 1

    # ------------------------------------------------------------------ #
    # Measured pass: the same schedule on a live 2-process fleet.
    # ------------------------------------------------------------------ #
    proc_server = _server("real", backend="process")
    proc_chaos = proc_server.serve(requests, faults=PLAN, retry=RETRY)
    proc_server.close()

    proc_faults = proc_chaos.faults
    proc_supervisor = proc_faults["supervisor"]
    # One fault semantics on both clocks: the parent draws every fault once,
    # so the live fleet observes exactly the virtual pass's faults, and no
    # model falls back to in-process threads.
    assert proc_faults["observed"] == chaos.faults["observed"], (
        f"process pass observed {proc_faults['observed']}, virtual pass "
        f"{chaos.faults['observed']}")
    assert proc_faults["degraded_models"] == []
    terminal = proc_chaos.completed + proc_chaos.shed \
        + proc_chaos.metrics["fleet"]["failed"]
    assert terminal == len(requests), "every request must reach a terminal status"
    assert proc_supervisor["respawns"] >= 1
    recovery_s = proc_supervisor["respawn_s"]
    mean_recovery_s = sum(recovery_s) / len(recovery_s)
    proc_goodput_retained = proc_chaos.completed / len(requests)

    rows = [
        ["virtual (no faults)", baseline.completed, 0, 0, "-",
         f"{baseline.fleet['goodput_rps']:.0f}", "-"],
        ["virtual (chaos)", chaos.completed,
         chaos.metrics["fleet"]["failed"], chaos.metrics["fleet"]["retries"],
         f"{supervisor['respawns']}",
         f"{chaos.fleet['goodput_rps']:.0f}",
         f"{goodput_retained:.3f}"],
        ["process (chaos)", proc_chaos.completed,
         proc_chaos.metrics["fleet"]["failed"],
         proc_chaos.metrics["fleet"]["retries"],
         f"{proc_supervisor['respawns']} ({mean_recovery_s * 1e3:.0f}ms)",
         f"{proc_chaos.fleet['goodput_rps']:.0f}",
         f"{proc_goodput_retained:.3f}"],
    ]
    report_writer("serving_faults", format_table(
        ["pass", "completed", "failed", "retries", "respawns", "goodput rps",
         "retained"],
        rows,
        title=f"Goodput under chaos — {' + '.join(FLEET)}, "
              f"{len(requests)} requests, plan seed {PLAN.seed} "
              f"(1 crash + 1 hang + 2 task errors), "
              f"retry x{RETRY.max_attempts}, "
              f"recv deadline {RETRY.task_timeout_s:g}s",
    ))

    payload = {
        "benchmark": "serving_faults",
        "fleet": FLEET,
        "requests": len(requests),
        "plan": PLAN.to_dict(),
        "retry": RETRY.to_dict(),
        "virtual": {
            "compute_time_s_per_batch": 2e-3,
            "goodput_retained": goodput_retained,
            "makespan_overhead": makespan_overhead,
            "baseline": baseline.to_dict(),
            "chaos": chaos.to_dict(),
        },
        "process_chaos": {
            "workers": 2,
            "goodput_retained": proc_goodput_retained,
            "goodput_rps": proc_chaos.fleet["goodput_rps"],
            "mean_recovery_s": mean_recovery_s,
            "recovery_s": recovery_s,
            "report": proc_chaos.to_dict(),
        },
        "unix_time": time.time(),
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    # Timed kernel for pytest-benchmark trend tracking: one chaos serve on
    # the deterministic virtual clock (injection + supervision included).
    timed = _server("virtual", compute_time_fn=FIXED_COST)
    benchmark(lambda: timed.serve(requests, faults=PLAN, retry=RETRY))
    timed.close()
