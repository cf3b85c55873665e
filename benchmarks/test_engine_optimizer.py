"""Optimizer pass pipeline — the oracle vs the default deployment.

PR 1's engine beat the per-op fake-quant simulation by lowering to a
compiled integer plan; this benchmark tracks the *second* act: the plan
optimizer (GEMM-epilogue fusion, im2col elimination, weight packing) and
the tape executor with the kernels its rule binds.  For each model the
baseline is the real oracle configuration — the unoptimized plan,
step-interpreted with int64 accumulation — and the candidate is the default
deployment; both run the same request stream, bit-exactness between them is
asserted before any speed number is recorded, and ``BENCH_optimizer.json``
is written at the repo root so future PRs can track the trajectory.

The speedup gate applies to MobileNet (the paper's headline network):
≥1.5x locally, relaxed via ``OPT_BENCH_MIN_SPEEDUP`` on shared CI runners.

A second, machine-independent gate checks that a partial batch costs what
its power-of-two bucket tape costs: at the end-to-end benchmark's operating
point (32x32, batch 8) ``run_partial`` at fill 1 must take at most
``MAX_FILL1_SHARE`` of a full-batch ``run`` on both served models.

A third bench checks the one contested kernel choice: every registry
depthwise conv, at 8/16/32 px and at every bucket batch, runs both the
stacked GEMM and the window einsum; the report
``benchmarks/reports/engine_depthwise_rule.txt`` lists the rule's picks,
its misses, what each miss costs, and the work bound the sweep itself would
fit.  Gate: the rule's depthwise total at batch 8 stays within
``MAX_RULE_LOSS`` of the per-step best.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path

import numpy as np

from repro import deploy
from repro.analysis import format_table
from repro.engine import check_plan_parity, program

BENCH_JSON = Path(__file__).parent.parent / "BENCH_optimizer.json"

MODELS = ["mobilenet_v1_nano", "resnet_nano", "inception_nano", "darknet_nano"]
HEADLINE = "mobilenet_v1_nano"
IMAGE_SIZE = 16
BATCH_SIZE = 8
BATCHES = 5       # short sweeps ...
SWEEPS = 12       # ... many times over: each mode gets many chances to catch
                  # a quiet scheduling window on a shared host, and best-of
                  # converges to true per-mode capability
MIN_OPT_SPEEDUP = float(os.environ.get("OPT_BENCH_MIN_SPEEDUP", "1.5"))

#: the two models ``benchmarks/e2e`` serves, at its image size
SERVED_MODELS = ["mobilenet_v1_nano", "resnet_nano"]
SERVED_IMAGE_SIZE = 32
FILL_REPEATS = 30
MAX_FILL1_SHARE = 0.6

#: the registry models with depthwise convs (inception's avg-pools lower to them)
DEPTHWISE_MODELS = ["mobilenet_v1_nano", "mobilenet_v2_nano", "inception_nano",
                    "inception_nano_deep"]
DEPTHWISE_SIZES = (8, 16, 32)
DEPTHWISE_REPEATS = 15
MAX_RULE_LOSS = 1.10

CANDIDATE = deploy.CompileConfig(
    image_size=IMAGE_SIZE,
    quant=deploy.QuantConfig(calibration_samples=16, calibration_batch_size=8),
    runtime=deploy.RuntimeConfig(batch_size=BATCH_SIZE))
ORACLE = CANDIDATE.with_overrides(optimize=False, accumulate="int", mode="steps")


def _interleaved_rates(runs: dict, batches, repeats: int = SWEEPS) -> dict:
    """Images/second per execution mode from the best observed batch latency.

    Every individual engine call is timed and the per-mode minimum taken
    (``repeats * len(batches)`` samples each), with the modes' sweeps
    interleaved (A B, A B, ...) rather than measured back to back.  On a
    shared host this converges to each mode's true capability — a single
    quiet scheduling window per mode suffices — so the speedup *ratios*
    stay stable under load noise that would swamp aggregate-sweep timing.
    """
    for run in runs.values():
        run(batches[0])
        run(batches[0])  # double warmup: fault in every buffer before timing
    best = {key: float("inf") for key in runs}
    for _ in range(repeats):
        for key, run in runs.items():
            for batch in batches:
                start = time.perf_counter()
                run(batch)
                best[key] = min(best[key], time.perf_counter() - start)
    return {key: batches[0].shape[0] / elapsed for key, elapsed in best.items()}


def test_optimizer_speedup_over_oracle(report_writer):
    rng = np.random.default_rng(0)
    batches = [rng.standard_normal((BATCH_SIZE, 3, IMAGE_SIZE, IMAGE_SIZE))
               for _ in range(BATCHES)]
    rows = []
    results = {}
    deployments = {}
    for name in MODELS:
        oracle = deploy.compile(name, ORACLE)
        deployments[name] = optimized = deploy.compile(name, CANDIDATE)

        parity = check_plan_parity(oracle.engine, optimized.engine, batches[:3])
        assert parity.bit_exact, f"{name}: optimized plan diverged: {parity}"

        rates = _interleaved_rates({"oracle": oracle.run, "optimized": optimized.run},
                                   batches)
        speedup = rates["optimized"] / rates["oracle"]
        results[name] = {
            "oracle_img_per_s": rates["oracle"],
            "optimized_img_per_s": rates["optimized"],
            "optimizer_speedup": speedup,
            "bit_exact": parity.bit_exact,
            "kernel_choices": dict(optimized.kernel_choices),
            "optimizer_report": optimized.plan.report.to_dict(),
        }
        rows.append([name, f"{rates['oracle']:.0f}", f"{rates['optimized']:.0f}",
                     f"{speedup:.2f}x"])

    # Per-instruction profile of the headline model's tape.
    profile = deployments[HEADLINE].profile(batches[0], repeats=5)

    report_writer("engine_optimizer", format_table(
        ["model", "oracle img/s", "optimized img/s", "speedup"],
        rows,
        title=f"Optimizer pass pipeline + tape vs the int64 step-interpreted oracle "
              f"— batch {BATCH_SIZE}, {IMAGE_SIZE}x{IMAGE_SIZE} inputs",
    ) + "\n\n" + profile.table())

    payload = {
        "benchmark": "engine_optimizer",
        "image_size": IMAGE_SIZE,
        "batch_size": BATCH_SIZE,
        "cpu_count": os.cpu_count() or 1,
        "blas_threads_pinned": os.environ.get("OPENBLAS_NUM_THREADS"),
        "models": results,
        "headline_profile": profile.to_dict(),
        "unix_time": time.time(),
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    headline_speedup = results[HEADLINE]["optimizer_speedup"]
    assert headline_speedup >= MIN_OPT_SPEEDUP, (
        f"optimizer pass pipeline is only {headline_speedup:.2f}x on {HEADLINE} "
        f"(required {MIN_OPT_SPEEDUP}x)"
    )


def test_partial_fill_costs_its_bucket(report_writer):
    config = CANDIDATE.with_overrides(image_size=SERVED_IMAGE_SIZE)
    rng = np.random.default_rng(1)
    batch = rng.standard_normal((BATCH_SIZE, 3, SERVED_IMAGE_SIZE, SERVED_IMAGE_SIZE))
    fills = [fill for fill in (1, 2, 3, 4, 5) if fill < BATCH_SIZE]
    rows, shares = [], {}
    for name in SERVED_MODELS:
        deployment = deploy.compile(name, config)
        runs = {BATCH_SIZE: lambda: deployment.run(batch)}
        for fill in fills:
            runs[fill] = lambda images=batch[:fill]: deployment.run_partial(images)
        best = {fill: float("inf") for fill in runs}
        for run in runs.values():
            run()
        for _ in range(FILL_REPEATS):        # interleaved: b8, f1, f2, ... each pass
            for fill, run in runs.items():
                start = time.perf_counter()
                run()
                best[fill] = min(best[fill], time.perf_counter() - start)
        shares[name] = {fill: best[fill] / best[BATCH_SIZE] for fill in fills}
        rows.append([name, f"{best[BATCH_SIZE] * 1e3:.3f}"]
                    + [f"{best[f] * 1e3:.3f} ({shares[name][f]:.2f})" for f in fills])

    report_writer("engine_optimizer_buckets", format_table(
        ["model", f"run b{BATCH_SIZE} ms"] + [f"fill {f} ms (share)" for f in fills],
        rows,
        title=f"run_partial on power-of-two bucket tapes vs a full run — batch "
              f"{BATCH_SIZE}, {SERVED_IMAGE_SIZE}x{SERVED_IMAGE_SIZE} inputs, minimum "
              f"of {FILL_REPEATS} interleaved repeats"))
    for name, by_fill in shares.items():
        assert by_fill[1] <= MAX_FILL1_SHARE, (
            f"{name}: run_partial at fill 1 costs {by_fill[1]:.2f}x a full-batch run "
            f"(required <= {MAX_FILL1_SHARE})")


def _depthwise_work(bound) -> int:
    """The rule's measure: staged elements per image times C."""
    g = bound.lane.geometry
    return g.kernel[0] * g.kernel[1] * g.in_channels ** 2 * g.out_height * g.out_width


def _step_seconds(engines: dict, name: str) -> dict:
    """Best-of interleaved wall time of one step's instructions per engine."""
    runs = {key: [i.run for i in engine.tape.items if i.name == name]
            for key, engine in engines.items()}
    best = {key: math.inf for key in runs}
    for _ in range(DEPTHWISE_REPEATS):
        for key, calls in runs.items():
            start = time.perf_counter()
            for call in calls:
                call()
            best[key] = min(best[key], time.perf_counter() - start)
    return best


def test_depthwise_rule_picks_the_faster_kernel(report_writer, monkeypatch):
    samples = []      # (batch, size, model, step, work, rule, stack s, einsum s)
    for size in DEPTHWISE_SIZES:
        config = CANDIDATE.with_overrides(image_size=size)
        rng = np.random.default_rng(size)
        for model in DEPTHWISE_MODELS:
            deployment = deploy.compile(model, config)
            names = [s.name for s in deployment.plan.steps
                     if getattr(s, "is_depthwise", False)]
            for batch in (1, 2, 4, 8):
                shape = (batch, *deployment.input_shape[1:])
                images = rng.standard_normal(shape)
                engines = {}
                for kernel, bound in (("stack", math.inf), ("einsum", -1)):
                    monkeypatch.setattr(program, "DEPTHWISE_STACKGEMM_MAX_WORK", bound)
                    engines[kernel] = deployment.plan.bind(shape)
                    monkeypatch.undo()
                ruled = deployment.plan.bind(shape)
                codes = [e.run(images).codes for e in (*engines.values(), ruled)]
                assert all(np.array_equal(codes[0], c) for c in codes[1:]), model
                by_name = {b.step.name: b for b in ruled.steps}
                for name in names:
                    seconds = _step_seconds(engines, name)
                    rule = ("stack" if ruled.tape.choices()[name].startswith("stackgemm")
                            else "einsum")
                    samples.append((batch, size, model, name, _depthwise_work(by_name[name]),
                                    rule, seconds["stack"], seconds["einsum"]))

    def rule_seconds(bound: float, batch: int) -> float:
        return sum(stack if work <= bound else einsum
                   for b, _, _, _, work, _, stack, einsum in samples if b == batch)

    rows = []
    for batch, size, model, name, work, rule, stack, einsum in samples:
        if batch != BATCH_SIZE:
            continue
        picked, best = (stack if rule == "stack" else einsum), min(stack, einsum)
        rows.append([f"{size}", model, name, f"{work / 1e6:.3f}",
                     f"{stack * 1e3:.3f}", f"{einsum * 1e3:.3f}", f"{stack / einsum:.2f}",
                     rule, "miss" if picked > best else "",
                     f"+{(picked - best) * 1e3:.3f}" if picked > best else ""])
    summary = []
    works = sorted({work for *_, work, _, _, _ in samples})
    for batch in (1, 2, 4, 8):
        mine = [s for s in samples if s[0] == batch]
        best_total = sum(min(stack, einsum) for *_, stack, einsum in mine)
        picked_total = sum(stack if rule == "stack" else einsum
                           for *_, rule, stack, einsum in mine)
        misses = [f"{size}px {model}/{name}" for _, size, model, name, _, rule, stack, einsum
                  in mine if (stack if rule == "stack" else einsum) > min(stack, einsum)]
        fitted = min([0, *works], key=lambda bound: rule_seconds(bound, batch))
        summary.append([f"{batch}", f"{len(mine)}", f"{len(misses)}",
                        f"{picked_total * 1e3:.3f}", f"{best_total * 1e3:.3f}",
                        f"{picked_total / best_total:.3f}", f"{fitted / 1e6:.3f}",
                        ", ".join(misses)])
    report_writer("engine_depthwise_rule", format_table(
        ["px", "model", "step", "work M", "stack ms", "einsum ms", "stack/einsum",
         "rule", "", "miss cost ms"], rows,
        title=f"Depthwise kernel rule vs both kernels — batch {BATCH_SIZE}, best of "
              f"{DEPTHWISE_REPEATS} interleaved runs per step; work = staged elements "
              f"per image x C; the rule stacks while work <= "
              f"{program.DEPTHWISE_STACKGEMM_MAX_WORK / 1e6:.3f} M")
        + "\n\n" + format_table(
        ["batch", "steps", "misses", "rule ms", "best ms", "rule/best",
         "best bound M", "missed steps"], summary,
        title="Per batch (the bucket tapes run the batch-8 kernels): the rule's "
              "depthwise total against the per-step best, and the work bound that "
              "minimizes the rule's total on this sweep"))
    ratio = float(summary[-1][5])
    assert ratio <= MAX_RULE_LOSS, (
        f"the depthwise rule costs {ratio:.3f}x the per-step best at batch "
        f"{BATCH_SIZE} (allowed {MAX_RULE_LOSS})")
