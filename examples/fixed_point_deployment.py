"""Fixed-point deployment: one compile call, one artifact, zero recompiles.

The paper's Graffitist flow emits a hardware-accurate inference graph whose
CPU execution is bit-accurate to the FPGA fixed-point implementation
(Section 4.2).  This example goes from that graph to a *shippable*
deployment through the unified API:

1. ``repro.deploy.compile`` — build, statically quantize (TQT power-of-2
   thresholds), lower to an integer plan, run the optimizer pass pipeline
   and bind each compute step's kernel by rule, all driven by one typed
   ``CompileConfig``;
2. inspect the lowered plan: per-step listing plus the manifest rows a
   deployment target cares about (weight codes, shift scales, accumulator
   bounds, int32-MAC fit);
3. show what the optimizer bought — the oracle (unoptimized plan, int64
   accumulation, step interpreter) against the optimized tape, with
   bit-exact parity — and the profile of the tape the deployment runs;
4. verify the whole network is bit-exact against the fake-quant simulation;
5. ``deployment.save`` / ``Deployment.load`` — persist the plan artifact
   (packed weights, content-addressed) and reload it with *zero*
   re-lowering/re-optimization, bit-exact with the fresh compile;
6. serve a request stream through ``deployment.serve(ServeConfig(
   max_wait_s=None))`` — fixed full-batch coalescing on the virtual clock.

Run with:  PYTHONPATH=src python examples/fixed_point_deployment.py
(or just ``python examples/...`` after ``pip install -e .``)
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

from repro import deploy
from repro.analysis import format_table
from repro.engine import PIPELINE_COUNTERS, check_engine_parity, check_plan_parity, lower_graph
from repro.serving import Request


def main() -> None:
    rng = np.random.default_rng(0)
    config = deploy.CompileConfig(
        num_classes=6,
        image_size=16,
        quant=deploy.QuantConfig(calibration_samples=32, calibration_batch_size=8),
        runtime=deploy.RuntimeConfig(batch_size=8),
    )
    deployment = deploy.compile("vgg_nano", config)

    # ------------------------------------------------------------------ #
    # The lowered integer plan: one line per step, plus the manifest rows
    # a deployment target cares about.
    # ------------------------------------------------------------------ #
    print(deployment.summary())
    manifest = deployment.manifest()
    rows = []
    for layer in manifest["steps"]:
        if "weight_dtype" in layer:
            rows.append([layer["name"], layer["weight_dtype"],
                         f"2^-{layer['weight_fraction']}",
                         layer["accumulator_bound"],
                         "yes" if layer["fits_int32_accumulator"] else "NO"])
    print()
    print(format_table(
        ["layer", "weight codes", "s_w", "worst-case accumulator", "fits int32 MAC"],
        rows,
        title="Compute layers of the integer plan (power-of-2 scales -> shifts)",
    ))
    print(f"\nTotal integer weight payload: {manifest['weight_bytes']} bytes; "
          f"int32-MAC compatible: {manifest['int32_mac_compatible']}")

    # ------------------------------------------------------------------ #
    # Optimizer pass pipeline: the deployment already went through it;
    # bind the oracle too — the unoptimized plan, step-interpreted with
    # int64 accumulation — and show what the passes and the tape bought.
    # ------------------------------------------------------------------ #
    batches = [rng.standard_normal((8, 3, 16, 16)) for _ in range(4)]
    baseline = lower_graph(deployment.graph).bind((8, 3, 16, 16), accumulate="int",
                                                  mode="steps")
    print(f"\nOptimizer pass log: {deployment.pass_log}")
    print(f"Kernels bound by rule: {deployment.kernel_choices}")
    parity = check_plan_parity(baseline, deployment.engine, batches[:2])
    print(f"Optimized-vs-oracle parity: {parity}")

    def rate(engine) -> float:
        engine.run(batches[0])
        start = time.perf_counter()
        for _ in range(10):
            for batch in batches:
                engine.run(batch)
        return 10 * len(batches) * 8 / (time.perf_counter() - start)

    base_rate, opt_rate = rate(baseline), rate(deployment.engine)
    print(f"Oracle: {base_rate:.0f} img/s — optimized tape: "
          f"{opt_rate:.0f} img/s ({opt_rate / base_rate:.2f}x)")
    print("\nPer-instruction profile of the tape the deployment runs:")
    print(deployment.profile(batches[0], repeats=5).table())

    # ------------------------------------------------------------------ #
    # Bit-exactness of the full network, not just one layer.
    # ------------------------------------------------------------------ #
    report = check_engine_parity(deployment.graph, deployment.engine, batches)
    print(f"\nWhole-network parity vs fake-quant simulation: {report}")
    if report.bit_exact:
        print("The integer engine reproduces the quantized inference graph bit-exactly, "
              "matching the paper's CPU-vs-FPGA validation.")

    # ------------------------------------------------------------------ #
    # Persistent plan artifact: save, reload, verify zero recompilation.
    # ------------------------------------------------------------------ #
    with tempfile.TemporaryDirectory() as tmp:
        path = deployment.save(Path(tmp) / "vgg_nano.rpa")
        size_kb = path.stat().st_size / 1024
        before = PIPELINE_COUNTERS.snapshot()
        start = time.perf_counter()
        warm = deploy.Deployment.load(path)
        load_ms = (time.perf_counter() - start) * 1e3
        delta = PIPELINE_COUNTERS.delta(before)
        identical = np.array_equal(warm.run(batches[0]).codes,
                                   deployment.run(batches[0]).codes)
        print(f"\nArtifact {path.name}: {size_kb:.0f} KiB, fingerprint "
              f"{deployment.fingerprint[:12]}…")
        print(f"Reloaded in {load_ms:.0f} ms with pipeline work {delta} "
              f"(no re-lowering/re-optimization); "
              f"bit-exact with the fresh compile: {identical}")

    # ------------------------------------------------------------------ #
    # Serve a request stream: full batches on the virtual clock.
    # ------------------------------------------------------------------ #
    images = rng.standard_normal((100, 3, 16, 16))
    requests = [Request(i, deployment.model, 0.0, image)
                for i, image in enumerate(images)]
    report = deployment.serve(deploy.ServeConfig(max_wait_s=None)).serve(requests)
    stats = report.metrics["per_model"][deployment.model]
    latency = report.fleet["latency_ms"]
    print(f"\nServed {report.completed} requests in {stats['batches']} batches of "
          f"{deployment.batch_size} ({stats['padded_slots']} padded): "
          f"{report.fleet['goodput_rps']:.0f} req/s, "
          f"p50 {latency['p50']:.2f} ms, p99 {latency['p99']:.2f} ms, "
          f"max {latency['max']:.2f} ms")
    top1 = np.argmax(report.outcomes[0].codes)
    print(f"First request predicted class {top1} "
          f"(codes are int8 logits at scale 2^-{deployment.output_meta.fraction}).")


if __name__ == "__main__":
    main()
