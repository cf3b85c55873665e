"""The traced phase: per-layer numbers, one probe per layer of ``src/repro``.

Every ``--trace 1`` run executes the same probes, so each per-layer metric
is measured on every workload; only the traced serve differs, running at
the workload's own offered rate (``config.SERVE_RPS``).  Spans are recorded
from here, around each call into a layer, next to the spans
``repro.telemetry`` already returns on ``FleetReport.trace``.  README.md
lists which end-to-end metric each number should move.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro import deploy
from repro.autograd import Tensor, cross_entropy
from repro.data import SyntheticImageNet, sample_calibration_batches
from repro.engine import PIPELINE_COUNTERS, lower_graph, optimize_plan
from repro.graph import quantize_static, transforms
from repro.models import MODEL_REGISTRY, avgpool_channel_hints
from repro.serving import (AdmissionController, AdmissionPolicy, BatchingPolicy,
                           DynamicBatcher, EwmaCostModel, ProcessFleetBackend,
                           TelemetryConfig)
from repro.training import Evaluator

import config
import loadgen
import workloads
from harness import SpanLog, cpu_seconds, percentile

TAPE_RUNS = 60
PROFILE_REPEATS = 20
PARTIAL_FILL = 3
ADMISSION_CALLS = 2000
PROCFLEET_TRIPS = 20
FORWARD_RUNS = 10
#: compile-pipeline work a loaded artifact must not repeat
NO_REWORK = ("lowerings", "optimizations", "autotune_runs", "tape_autotune_runs")


class Probes:
    """Runs the probes in dependency order and collects their metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, out_dir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.out_dir = out_dir
        self.log = SpanLog()
        self.metrics: dict[str, float] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.trace_extra: dict = {}
        self.artifact_paths: dict[str, str] = {}
        rng = np.random.default_rng(seed)
        self.batch = rng.standard_normal(
            (config.BATCH_SIZE, 3, config.IMAGE_SIZE, config.IMAGE_SIZE))

    def run(self) -> None:
        self.compile()
        try:
            self.artifacts()
            self.tape()
            self.serve()
            self.procfleet()
        finally:
            for path in self.artifact_paths.values():
                Path(path).unlink(missing_ok=True)
        self.training()

    def _mean_ms(self, span_name: str) -> float:
        return float(np.mean(self.log.durations(span_name))) * 1e3

    def _total_s(self, span_name: str) -> float:
        return float(np.sum(self.log.durations(span_name)))

    # ------------------------------------------------------------------ #
    def compile(self) -> None:
        """Counters over one ``deploy.compile`` of the fleet, then the same
        pipeline stage by stage, in the order ``deploy.compile`` runs it."""
        log, cfg = self.log, workloads.compile_config()
        before = PIPELINE_COUNTERS.snapshot()
        with log.span("deploy.compile"):
            self.deployments = {m: deploy.compile(m, cfg) for m in config.MODELS}
        for name, count in PIPELINE_COUNTERS.delta(before).items():
            self.metrics[f"engine.counters.{name}"] = count

        agree = total = 0
        for model in config.MODELS:
            spec, quant, runtime = MODEL_REGISTRY[model], cfg.quant, cfg.runtime
            with log.span("graph.build_transform", op=model):
                graph = spec.build(num_classes=cfg.num_classes, seed=quant.seed)
                graph.eval()
                transforms.run_default_optimizations(
                    graph, channel_hints=avgpool_channel_hints(graph))
            with log.span("quant.calibrate", op=model):
                dataset = SyntheticImageNet(
                    num_classes=cfg.num_classes, image_size=cfg.image_size,
                    train_size=quant.calibration_samples,
                    val_size=max(quant.calibration_samples,
                                 quant.calibration_batch_size),
                    seed=quant.seed)
                calibration = sample_calibration_batches(
                    dataset, num_samples=quant.calibration_samples,
                    batch_size=quant.calibration_batch_size, seed=quant.seed)
                quantized = quantize_static(
                    graph, calibration, precision=quant.precision,
                    sequential=quant.sequential_calibration, copy=False)
            with log.span("engine.plan.lower", op=model):
                plan = lower_graph(quantized.graph)
            with log.span("engine.optimizer.optimize", op=model):
                plan = optimize_plan(plan, autotune=cfg.autotune)
            with log.span("engine.program.bind", op=model):
                engine = plan.bind(
                    (runtime.batch_size, spec.in_channels, cfg.image_size,
                     cfg.image_size), accumulate=runtime.accumulate,
                    mode=runtime.mode, fuse=runtime.fuse)
            first = self.deployments[model]
            if not np.array_equal(engine.run(self.batch).codes,
                                  first.run(self.batch).codes):
                self.problems.append(f"{model}: staged compile and "
                                     f"deploy.compile disagree on output codes")
            for mine, theirs in ((plan.kernel_choices, first.plan.kernel_choices),
                                 (plan.tape_kernel_choices,
                                  first.plan.tape_kernel_choices)):
                total += len(theirs)
                agree += sum(mine.get(step) == choice
                             for step, choice in theirs.items())
        for stage in ("graph.build_transform", "quant.calibrate", "engine.plan.lower",
                      "engine.optimizer.optimize", "engine.program.bind"):
            self.metrics[f"{stage}_s"] = self._total_s(stage)
        self.metrics["engine.optimizer.choice_agreement"] = agree / total

    # ------------------------------------------------------------------ #
    def artifacts(self) -> None:
        size = 0
        for model, dep in self.deployments.items():
            path = self.out_dir / f"{self.workload}-{model}.rpa"
            self.artifact_paths[model] = str(path)
            with self.log.span("deploy.save", op=model):
                dep.save(path)
            size += path.stat().st_size
            before = PIPELINE_COUNTERS.snapshot()
            with self.log.span("deploy.load", op=model):
                loaded = deploy.load(path)
            delta = PIPELINE_COUNTERS.delta(before)
            if any(delta[name] for name in NO_REWORK):
                self.problems.append(f"deploy.load({model}) recompiled: {delta}")
            if not np.array_equal(loaded.run(self.batch).codes,
                                  dep.run(self.batch).codes):
                self.problems.append(f"{model}: loaded artifact changes output codes")
        self.metrics["deploy.save_s"] = self._total_s("deploy.save")
        self.metrics["deploy.load_s"] = self._total_s("deploy.load")
        self.metrics["deploy.artifact_mb"] = size / 1e6

    # ------------------------------------------------------------------ #
    def tape(self) -> None:
        log, partial = self.log, self.batch[:PARTIAL_FILL]
        tables = {}
        for model, dep in self.deployments.items():
            run, run_partial = f"engine.tape.run.{model}", f"engine.tape.run_partial.{model}"
            for _ in range(TAPE_RUNS):
                with log.span(run):
                    dep.run(self.batch)
                with log.span(run_partial):
                    dep.run_partial(partial)
            self.attempted += 2 * TAPE_RUNS
            run_ms = self._mean_ms(run)
            self.metrics[f"engine.tape.run_ms.{model}"] = run_ms
            self.metrics[f"engine.tape.run_partial_ms.{model}"] = self._mean_ms(run_partial)

            with log.span("deploy.profile", op=model):
                profile = dep.profile(self.batch, repeats=PROFILE_REPEATS, level="tape")
            shares = sorted((step.share for step in profile.steps), reverse=True)
            self.metrics[f"engine.tape.instr_count.{model}"] = len(profile.steps)
            self.metrics[f"engine.tape.top4_instr_share.{model}"] = sum(shares[:4])
            self.metrics[f"engine.tape.dispatch_overhead_share.{model}"] = (
                1.0 - profile.total_ms / run_ms)
            tables[model] = [{"name": s.name, "kind": s.op, "mean_ms": s.mean_ms,
                              "share": s.share} for s in profile.steps]
            if model == "mobilenet_v1_nano":
                # The zoo names depthwise convolutions "<block>_dw".
                self.metrics["engine.kernels.depthwise_share.mobilenet_v1_nano"] = sum(
                    step.share for step in profile.steps if step.name.endswith("_dw"))
        self.trace_extra["tape_instructions"] = tables

        runner = self.deployments[config.MODELS[0]].runner()
        groups = [partial, self.batch[PARTIAL_FILL:2 * PARTIAL_FILL]]
        for _ in range(TAPE_RUNS):
            with log.span("engine.runner.megabatch"):
                runner.run_partial_groups(groups)
        self.attempted += TAPE_RUNS
        self.metrics["engine.runner.megabatch_ms"] = self._mean_ms("engine.runner.megabatch")

    # ------------------------------------------------------------------ #
    def serve(self) -> None:
        """One untraced and one traced serve of the same request stream."""
        first, *rest = self.deployments.values()
        server = first.serve(
            deploy.ServeConfig(max_batch=config.BATCH_SIZE, max_wait_s=config.MAX_WAIT_S,
                               workers=config.FLEET_WORKERS, execution="real",
                               backend="thread"),
            preload=rest)
        rate = config.SERVE_RPS[self.workload]
        window = self.seconds * config.TRACE_SERVE_SHARE
        server.serve(loadgen.make_requests([self.seed, 1], rate, window / 2),
                     pacing="open")
        requests = loadgen.make_requests(self.seed, rate, window)

        def serve_once(telemetry):
            cpu = cpu_seconds()
            with self.log.span("serving.serve", op="traced" if telemetry else "untraced"):
                report = server.serve(requests, pacing="open", telemetry=telemetry)
            cpu = cpu_seconds() - cpu
            counts = loadgen.tally(report, requests)
            self.attempted += counts.sent
            self.failed += counts.failed
            if not counts.accounted:
                self.problems.append("a request of the serve probe is not terminal "
                                     "exactly once")
            return report, counts, cpu / max(counts.good, 1)

        _, _, untraced_cpu = serve_once(None)
        report, counts, traced_cpu = serve_once(
            TelemetryConfig(sample_rate=config.TRACE_SAMPLE_RATE))
        server.close()
        metrics, trace = self.metrics, report.trace
        self._request_budget(report, requests)
        metrics["serving.request.p99_ms"] = percentile(counts.latencies_ms, 99)
        metrics["serving.request.slo_miss_share"] = 1.0 - counts.good / counts.sent

        admission = report.metrics["admission"]
        metrics["serving.admission.considered"] = admission["considered"]
        metrics["serving.admission.admitted"] = admission["admitted"]
        metrics["serving.admission.shed_share"] = (
            1.0 - admission["admitted"] / admission["considered"])
        per_model = report.metrics["per_model"].values()
        batches = sum(m["batches"] for m in per_model)
        metrics["serving.batcher.mean_fill"] = (
            sum(m["mean_fill"] * m["batches"] for m in per_model) / batches)
        metrics["serving.batcher.max_depth"] = max(m["queue"]["max_depth"] for m in per_model)
        metrics["serving.batcher.popped_batches"] = sum(
            m["queue"]["popped_batches"] for m in per_model)
        metrics["serving.megabatch.packed_share"] = (
            sum(m["megabatch_batches"] for m in per_model) / batches)
        metrics["serving.server.utilization"] = report.fleet["utilization"]
        metrics["serving.server.wall_minus_makespan_s"] = (
            report.wall_time_s - report.metrics["makespan_s"])
        metrics["telemetry.overhead_share"] = traced_cpu / untraced_cpu - 1.0
        metrics["telemetry.spans"] = len(trace.spans)
        metrics["telemetry.dropped"] = trace.dropped
        late_p99 = percentile(counts.late_ms, 99)
        metrics["workload.pacer.late_p99_ms"] = late_p99
        if late_p99 > config.PACER_LATE_LIMIT_MS:
            print(f"INVALID: the load generator ran late (p99 {late_p99:.2f} ms)")
        for name in ("sent", "completed", "shed", "failed"):
            metrics[f"workload.{name}"] = getattr(counts, name)
        self.trace_extra["program_spans"] = [
            {"name": s.name, "cat": s.cat, "start_s": s.start_s, "end_s": s.end_s,
             "lane": s.lane, "trace_id": s.trace_id} for s in trace.spans]

        self._admission_cost(requests, report.cost_model_s)

    def _request_budget(self, report, requests) -> None:
        """Where a sampled request's time went.

        Pacer lateness (due -> release) is measured here, queue and execute
        are the program's spans; what is left of the observed latency is the
        admission stage, scheduler lock included.
        """
        spans: dict[int, dict[str, float]] = {}
        for span in report.trace.spans:
            if span.cat in ("queue", "execute") and span.trace_id is not None:
                spans.setdefault(span.trace_id, {})[span.cat] = span.duration_s
        due = {req.request_id: req.arrival_s for req in requests}
        parts = {"queue": [], "execute": [], "admission": [], "other": []}
        observed = covered = 0.0
        for outcome in report.outcomes:
            mine = spans.get(outcome.request_id)
            if not outcome.completed or mine is None or len(mine) < 2:
                continue
            late = outcome.release_s - due[outcome.request_id]
            parts["queue"].append(mine["queue"])
            parts["execute"].append(mine["execute"])
            parts["admission"].append(outcome.latency_s - mine["queue"] - mine["execute"])
            parts["other"].append(late)
            observed += late + outcome.latency_s
            covered += late + mine["queue"] + mine["execute"]
        for part, values in parts.items():
            self.metrics[f"serving.request.{part}_ms"] = float(np.mean(values)) * 1e3
            self.metrics[f"serving.request.{part}_p95_ms"] = percentile(values, 95) * 1e3
        coverage = covered / observed
        self.metrics["serving.request.span_coverage"] = coverage
        if not config.SPAN_COVERAGE_MIN <= coverage <= 2 - config.SPAN_COVERAGE_MIN:
            self.problems.append(f"lateness + queue + execute cover {coverage:.3f} "
                                 f"of the observed request latency")

    def _admission_cost(self, requests, cost_estimates: dict) -> None:
        """Admission decisions priced alone, against half-full queues."""
        policy = BatchingPolicy.dynamic(config.BATCH_SIZE, config.MAX_WAIT_S)
        cost_model = EwmaCostModel()
        for model, estimate in cost_estimates.items():
            cost_model.prime(model, estimate)
        controller = AdmissionController(AdmissionPolicy(), cost_model)
        queues = {m: DynamicBatcher(m, policy) for m in config.MODELS}
        for req in requests[:config.BATCH_SIZE]:
            queues[req.model].push(req)
        sample = requests[:ADMISSION_CALLS]
        with self.log.span("serving.admission.consider"):
            for req in sample:
                controller.consider(req, req.arrival_s, req.arrival_s, queues, policy)
        self.metrics["serving.admission.consider_us"] = (
            self._total_s("serving.admission.consider") / len(sample) * 1e6)

    # ------------------------------------------------------------------ #
    def procfleet(self) -> None:
        """One spawn-context worker process, a fixed full batch."""
        model = config.MODELS[0]
        dep = self.deployments[model]
        specs = {m: {"input_shape": tuple(d.engine.input_shape),
                     "output_shape": tuple(d.engine.output_shape)}
                 for m, d in self.deployments.items()}
        backend = ProcessFleetBackend(specs, self.artifact_paths, workers=1)
        try:
            with self.log.span("serving.procfleet.start"):
                backend.start()
            for _ in range(PROCFLEET_TRIPS):
                with self.log.span("serving.procfleet.roundtrip"):
                    codes, *_ = backend.run(0, model, [self.batch])
                with self.log.span("serving.procfleet.inprocess"):
                    expected = dep.run_partial(self.batch).codes
                if not np.array_equal(codes[0], expected):
                    self.failed += 1
                    self.problems.append("process worker changes output codes")
        finally:
            backend.close()
        self.attempted += PROCFLEET_TRIPS
        roundtrip = self._mean_ms("serving.procfleet.roundtrip")
        self.metrics["serving.procfleet.start_s"] = self._total_s("serving.procfleet.start")
        self.metrics["serving.procfleet.roundtrip_ms"] = roundtrip
        self.metrics["serving.procfleet.ipc_overhead_ms"] = (
            roundtrip - self._mean_ms("serving.procfleet.inprocess"))

    # ------------------------------------------------------------------ #
    def training(self) -> None:
        """``Trainer.train_step`` unrolled, one span per stage."""
        log = self.log
        work = workloads.TqtRetrain(self.seed)
        with log.span("training.setup"):
            work.setup()
        trainer, model = work.trainer, work.quantized
        before = work.thresholds()
        model.train()
        for step in range(config.TRACE_TRAIN_STEPS):
            images, labels = work.batches[step % len(work.batches)]
            with log.span("training.step", op=step):
                with log.span("training.forward"):
                    logits = model(Tensor(images))
                with log.span("training.loss"):
                    loss = cross_entropy(logits, labels)
                trainer.optimizer.zero_grad()
                with log.span("training.backward"):
                    loss.backward()
                with log.span("training.freezer"):
                    trainer.freezer.observe()
                with log.span("training.optim_step"):
                    trainer.optimizer.step()
                with log.span("training.freezer"):
                    trainer.freezer.step(trainer.optimizer.step_count)
            if not np.isfinite(loss.data):
                self.failed += 1
                self.problems.append(f"training step {step}: non-finite loss")
        self.attempted += config.TRACE_TRAIN_STEPS
        for stage in ("forward", "loss", "backward", "optim_step", "freezer"):
            self.metrics[f"training.{stage}_ms"] = (
                self._total_s(f"training.{stage}") / config.TRACE_TRAIN_STEPS * 1e3)
        after = work.thresholds()
        self.metrics["quant.tqt.trainable_thresholds"] = len(after)
        self.metrics["quant.tqt.thresholds_moved"] = sum(
            after[name] != value for name, value in before.items())

        images, _ = work.batches[0]
        work.folded.train()
        for _ in range(FORWARD_RUNS):
            with log.span("quant.forward.fp32"):
                work.folded(Tensor(images))
            with log.span("quant.forward.fake_quant"):
                model(Tensor(images))
        self.metrics["quant.fake_quant.forward_share"] = (
            1.0 - self._total_s("quant.forward.fp32")
            / self._total_s("quant.forward.fake_quant"))

        with log.span("training.evaluator"):
            result = Evaluator(work.val_loader).evaluate(model)
        self.metrics["training.evaluator.img_per_s"] = (
            result.samples / self._total_s("training.evaluator"))
