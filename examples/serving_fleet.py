"""Serving a fleet of integer-compiled models under realistic traffic.

The paper's deployment story ends at a fixed-point inference graph; a
production deployment starts there.  This example stands up a fleet server
through the unified deployment API (``repro.deploy``) and walks the serving
trade-offs end to end:

1. compile one deployment with a typed config and serve it as a fleet via
   ``deployment.serve(ServeConfig(...))`` — extra models compile on demand;
2. generate a bursty request stream with a per-request latency SLO, serve
   it under fixed full-batch coalescing and under dynamic
   max-batch/max-wait batching, and compare tail latency;
3. dispatch across ``workers=2`` — batches for *different models* overlap
   on the virtual clock (each model still serializes on its own engine);
4. back the plan cache with a disk artifact tier: a second server warms
   every model from content-addressed artifacts with zero recompilation;
5. shrink the plan cache below the fleet size and watch eviction/recompile
   counters move;
6. run the same fleet on a real thread pool, then on the **process
   backend** (worker processes bootstrapped from ``.rpa`` artifacts,
   shared-memory data plane) with open-loop arrival pacing;
7. overload the server and watch admission control trade goodput for
   bounded latency instead of unbounded queueing.

Run with:  PYTHONPATH=src python examples/serving_fleet.py
(or just ``python examples/...`` after ``pip install -e .``)
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import deploy
from repro.analysis import format_table
from repro.engine import PIPELINE_COUNTERS
from repro.serving import (
    SCENARIOS,
    Request,
    Scenario,
    fleet_input_shapes,
    generate_requests,
)

FLEET = ("lenet_nano", "vgg_nano", "mobilenet_v1_nano")
IMAGE_SIZE = 8
BATCH = 8

COMPILE = deploy.CompileConfig(
    image_size=IMAGE_SIZE,
    quant=deploy.QuantConfig(calibration_samples=8, calibration_batch_size=4),
    runtime=deploy.RuntimeConfig(batch_size=BATCH),
)


def main() -> None:
    deployment = deploy.compile("lenet_nano", COMPILE)

    scenario = Scenario(
        "bursty_fleet", "bursty", duration_s=2.0,
        model_mix=(("lenet_nano", 0.5), ("vgg_nano", 0.3), ("mobilenet_v1_nano", 0.2)),
        slo_ms=250.0, params=dict(burst_rate_rps=400.0, on_s=0.15, off_s=0.35))
    requests = generate_requests(scenario, fleet_input_shapes(list(FLEET), IMAGE_SIZE),
                                 seed=0)
    print(f"Workload: {len(requests)} requests over {scenario.duration_s:.0f}s "
          f"({scenario.arrival} arrivals), SLO {scenario.slo_ms:.0f}ms, "
          f"fleet mix over {len(FLEET)} models\n")

    # ------------------------------------------------------------------ #
    # Dynamic batching vs. fixed full-batch coalescing.
    # ------------------------------------------------------------------ #
    rows = []
    for label, max_wait_s in [("full_batch", None), ("dynamic", 5e-3)]:
        server = deployment.serve(deploy.ServeConfig(
            fleet=FLEET, max_wait_s=max_wait_s, max_queue_depth=64))
        report = server.serve(requests)
        fleet = report.fleet
        rows.append([label, fleet["completed"], fleet["shed"],
                     f"{fleet['goodput_rps']:.0f}",
                     f"{fleet['latency_ms']['p50']:.2f}",
                     f"{fleet['latency_ms']['p99']:.2f}",
                     f"{fleet['utilization'] * 100:.0f}%"])
    print(format_table(
        ["policy", "completed", "shed", "goodput rps", "p50 ms", "p99 ms", "util"],
        rows, title="Batching policy under bursty traffic"))
    print("Partial batches launched on the max-wait timeout keep tail latency "
          "bounded through the bursts.\n")

    # ------------------------------------------------------------------ #
    # Multi-worker dispatch: workers=2 overlaps different models' batches
    # on the virtual clock; codes are bit-identical to one worker.
    # ------------------------------------------------------------------ #
    dispatch = deployment.serve(deploy.ServeConfig(
        fleet=FLEET, max_wait_s=5e-3, max_queue_depth=64, workers=2))
    dispatch_report = dispatch.serve(requests)
    print(f"Same stream with workers=2 dispatch: "
          f"{dispatch_report.fleet['completed']} completed, "
          f"p99 {dispatch_report.latency_ms('p99'):.2f}ms "
          f"(single-worker p99 was {rows[-1][5]}ms; different models' batches "
          f"overlap, identical output codes)\n")
    dispatch.close()

    # ------------------------------------------------------------------ #
    # Disk-backed plan cache: the second server warms from artifacts.
    # ------------------------------------------------------------------ #
    with tempfile.TemporaryDirectory() as tmp:
        cold = deployment.serve(deploy.ServeConfig(
            fleet=FLEET, max_wait_s=5e-3, artifact_dir=Path(tmp)))
        stats = cold.cache.stats()
        print(f"Cold fleet with artifact_dir: compiled {stats['misses']} models, "
              f"persisted {stats['disk_stores']} artifacts "
              f"({len(list(Path(tmp).glob('*.rpa')))} files)")
        before = PIPELINE_COUNTERS.snapshot()
        warm = deploy.compile("lenet_nano", COMPILE).serve(deploy.ServeConfig(
            fleet=FLEET, max_wait_s=5e-3, artifact_dir=Path(tmp)))
        warm_stats = warm.cache.stats()
        delta = PIPELINE_COUNTERS.delta(before)
        print(f"Warm fleet: {warm_stats['disk_hits']} models loaded from disk; "
              f"pipeline work beyond the preloaded deployment's compile: "
              f"optimizations={delta['optimizations'] - 1}, "
              f"autotune runs={delta['tape_autotune_runs'] - 1} for "
              f"{len(FLEET) - 1} fleet models\n")

    # ------------------------------------------------------------------ #
    # Plan cache pressure: fleet of 3 through a cache of 2.
    # ------------------------------------------------------------------ #
    small_cache = deployment.serve(deploy.ServeConfig(
        fleet=FLEET, max_wait_s=5e-3, max_queue_depth=64, cache_capacity=2))
    report = small_cache.serve(requests)
    cache = report.cache
    print(f"Cache capacity 2 over a fleet of {len(FLEET)}: "
          f"{cache['hits']} hits, {cache['misses']} misses, "
          f"{cache['evictions']} evictions, {cache['recompiles']} recompiles "
          f"({cache['total_compile_s'] * 1e3:.0f}ms total compile); "
          f"resident now: {cache['resident']}\n")

    # ------------------------------------------------------------------ #
    # Real-clock execution: the same fleet on an actual thread pool.
    # ------------------------------------------------------------------ #
    real = deployment.serve(deploy.ServeConfig(
        fleet=FLEET, max_wait_s=5e-3, workers=2, execution="real"))
    report = real.serve(requests)
    real.close()
    fleet_stats = report.fleet
    print(f"Real execution (2 dispatch workers, wall clock): "
          f"{fleet_stats['completed']} served at "
          f"{fleet_stats['goodput_rps']:.0f} req/s measured, "
          f"p99 {fleet_stats['latency_ms']['p99']:.1f}ms over "
          f"{report.metrics['makespan_s'] * 1e3:.0f}ms makespan\n")

    # ------------------------------------------------------------------ #
    # Process backend: each dispatch worker drives a worker process that
    # bootstrapped its engines from .rpa artifacts; images/codes move
    # through shared-memory arenas.  Codes stay bit-identical.
    # ------------------------------------------------------------------ #
    proc = deployment.serve(deploy.ServeConfig(
        fleet=FLEET, max_wait_s=5e-3, workers=2, execution="real",
        backend="process"))
    proc_report = proc.serve(requests)
    proc.close()
    print(f"Process backend (2 worker processes, shared-memory data plane): "
          f"{proc_report.fleet['completed']} served at "
          f"{proc_report.fleet['goodput_rps']:.0f} req/s measured, "
          f"backend={proc_report.backend}\n")

    # ------------------------------------------------------------------ #
    # Open-loop pacing: replay the scenario's arrival process on the wall
    # clock, 4x sped up — arrivals are independent of completions, the
    # load shape that exposes queueing collapse (flooding measures peak
    # throughput instead).
    # ------------------------------------------------------------------ #
    paced = deployment.serve(deploy.ServeConfig(
        fleet=FLEET, max_wait_s=5e-3, workers=2, execution="real"))
    paced_report = paced.serve(requests, pacing="open", time_scale=0.25)
    paced.close()
    print(f"Open-loop pacing (time_scale=0.25): "
          f"{paced_report.fleet['completed']} served, "
          f"p99 {paced_report.latency_ms('p99'):.1f}ms at the offered rate "
          f"(pacing={paced_report.pacing})\n")

    # ------------------------------------------------------------------ #
    # Overload: admission control sheds instead of queueing unboundedly.
    # ------------------------------------------------------------------ #
    rng = np.random.default_rng(1)
    arrivals = np.sort(rng.uniform(0.0, 0.5, size=600))
    overload = [Request(i, "lenet_nano", float(t),
                        rng.standard_normal((3, IMAGE_SIZE, IMAGE_SIZE)),
                        deadline_s=0.05)
                for i, t in enumerate(arrivals)]
    server = deployment.serve(
        deploy.ServeConfig(max_batch=4, max_wait_s=2e-3, max_queue_depth=16),
        compute_time_fn=lambda m, f: 0.02)
    report = server.serve(overload)
    fleet = report.fleet
    shed = report.metrics["per_model"]["lenet_nano"]["shed"]
    print(f"Overload (1200 rps offered vs ~200 rps capacity): "
          f"{fleet['completed']} served / {fleet['shed']} shed "
          f"({fleet['shed_rate'] * 100:.0f}%), by reason {shed}; "
          f"served p99 {fleet['latency_ms']['p99']:.1f}ms stays bounded "
          f"(max queue depth {report.metrics['queue_depth']['max_depth']}).")
    print("\nFull scenario sweep: "
          f"PYTHONPATH=src python -m pytest benchmarks/test_serving_scenarios.py -q -s "
          f"(scenarios: {', '.join(SCENARIOS)})")


if __name__ == "__main__":
    main()
