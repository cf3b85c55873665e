"""The four workloads.  README.md records why each was chosen.

Each workload offers the same phases to ``run.py``: ``setup()`` (timed as
``setup_s``), ``warm(seconds)`` (untimed), ``measure(seconds)`` (the window
every end-to-end metric comes from, tracing off) and ``check(window)`` (the
output checks, returning a list of problems).
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro import deploy
from repro.data import DataLoader, Preprocessor, SyntheticImageNet, sample_calibration_batches
from repro.engine import check_engine_parity
from repro.graph import clone_graph, collect_tqt_quantizers, prepare_retrain, transforms
from repro.models import avgpool_channel_hints, build_model
from repro.quant.config import INT8_PRECISION
from repro.serving import BatchingPolicy, FleetServer
from repro.training import PaperHyperparameters, Trainer

import config
import loadgen
from harness import cpu_seconds, peak_rss_mb


def compile_config(**runtime) -> deploy.CompileConfig:
    return deploy.CompileConfig(
        num_classes=config.NUM_CLASSES, image_size=config.IMAGE_SIZE,
        quant=deploy.QuantConfig(seed=config.COMPILE_SEED),
        runtime=deploy.RuntimeConfig(batch_size=config.BATCH_SIZE, **runtime))


@functools.cache
def compile_oracles() -> dict:
    """Independent reference deployments: no optimizer passes, pure-int64
    accumulation, the step interpreter instead of the tape.  Compiled once
    per process; the compile seed is fixed, so every round shares them."""
    oracle_config = deploy.CompileConfig(
        num_classes=config.NUM_CLASSES, image_size=config.IMAGE_SIZE,
        quant=deploy.QuantConfig(seed=config.COMPILE_SEED), optimize=False,
        runtime=deploy.RuntimeConfig(batch_size=config.BATCH_SIZE,
                                     accumulate="int", mode="steps"))
    return {model: deploy.compile(model, oracle_config) for model in config.MODELS}


@dataclass
class Window:
    """What one measured window produced."""

    unit: str                      # what throughput_per_s counts
    good: int                      # correct work units
    attempted: int                 # operations attempted
    failed: int                    # operations that failed or were wrong
    latencies_ms: np.ndarray       # one sample per operation
    wall_s: float
    cpu_s: float
    rss_mb: float
    detail: dict = field(default_factory=dict)


class _Meter:
    """Wall clock, CPU and peak RSS around the measured region."""

    def __enter__(self):
        self._cpu = cpu_seconds()
        self._wall = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._wall
        self.cpu_s = cpu_seconds() - self._cpu
        self.rss_mb = peak_rss_mb()


class Workload:
    """Phases every workload offers to ``run.py``; see the module docstring."""

    def close(self) -> None:
        """Release what ``setup`` opened."""


class EngineOffline(Workload):
    """Closed loop, one caller: a sweep is one full batch through each of
    the two deployments (32 images)."""

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        shape = (config.OFFLINE_POOL, config.BATCH_SIZE, 3,
                 config.IMAGE_SIZE, config.IMAGE_SIZE)
        self.batches = {model: rng.standard_normal(shape) for model in config.MODELS}

    def setup(self) -> None:
        self.deployments = {model: deploy.compile(model, compile_config())
                            for model in config.MODELS}
        for model, dep in self.deployments.items():
            dep.run(self.batches[model][0])

    def warm(self, seconds: float) -> None:
        oracles = compile_oracles()
        self.expected = {model: [oracles[model].run(batch).codes.copy()
                                 for batch in self.batches[model]]
                         for model in config.MODELS}
        self._sweeps(seconds)

    def _sweeps(self, seconds: float) -> tuple[list[float], int]:
        deployments = [(self.deployments[m], self.batches[m], self.expected[m])
                       for m in config.MODELS]
        latencies, wrong, index = [], 0, 0
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            slot = index % config.OFFLINE_POOL
            start = time.perf_counter()
            outputs = [dep.run(batches[slot]) for dep, batches, _ in deployments]
            latencies.append(time.perf_counter() - start)
            # Codes live in the engine's arena until the next run.
            wrong += any(not np.array_equal(out.codes, expected[slot])
                         for out, (_, _, expected) in zip(outputs, deployments))
            index += 1
        return latencies, wrong

    def measure(self, seconds: float) -> Window:
        with _Meter() as meter:
            latencies, wrong = self._sweeps(seconds)
        per_sweep = config.BATCH_SIZE * len(config.MODELS)
        return Window(unit="image", good=(len(latencies) - wrong) * per_sweep,
                      attempted=len(latencies), failed=wrong,
                      latencies_ms=np.asarray(latencies) * 1e3,
                      wall_s=meter.wall_s, cpu_s=meter.cpu_s, rss_mb=meter.rss_mb,
                      detail={"sweeps": len(latencies)})

    def check(self, window: Window) -> list[str]:
        problems = []
        for model, dep in self.deployments.items():
            parity = check_engine_parity(dep.graph, dep.engine,
                                         list(self.batches[model][:2]))
            if not parity.bit_exact:
                problems.append(f"{model} vs fake-quant simulation: {parity}")
        return problems


class Fleet(Workload):
    """Open loop: Poisson arrivals at a fixed rate into a one-worker
    thread-backend fleet with dynamic batching and SLO admission."""

    def __init__(self, seed: int, rate_rps: float) -> None:
        self.seed = seed
        self.rate_rps = rate_rps

    def setup(self) -> None:
        self.server = make_server()

    def close(self) -> None:
        self.server.close()

    def warm(self, seconds: float) -> None:
        self.oracles = compile_oracles()
        warm = loadgen.make_requests([self.seed, 1], self.rate_rps, seconds)
        self.server.serve(warm, pacing="open")

    def measure(self, seconds: float) -> Window:
        self.requests = loadgen.make_requests(self.seed, self.rate_rps, seconds)
        with _Meter() as meter:
            self.report = self.server.serve(self.requests, pacing="open")
        counts = self.counts = loadgen.tally(self.report, self.requests)
        return Window(unit="request", good=counts.good, attempted=counts.sent,
                      failed=counts.failed, latencies_ms=counts.latencies_ms,
                      wall_s=meter.wall_s, cpu_s=meter.cpu_s, rss_mb=meter.rss_mb,
                      detail={"sent": counts.sent, "completed": counts.completed,
                              "shed": counts.shed,
                              "pacer_late_p99_ms": float(
                                  np.percentile(counts.late_ms, 99))})

    def check(self, window: Window) -> list[str]:
        problems = []
        if not self.counts.accounted:
            problems.append(f"sent {self.counts.sent} != completed "
                            f"{self.counts.completed} + shed {self.counts.shed} "
                            f"+ failed {self.counts.failed}")
        checked, wrong = loadgen.wrong_codes(self.report, self.requests,
                                             self.oracles, self.seed)
        window.failed += wrong
        window.detail["oracle_checked"] = checked
        if wrong:
            problems.append(f"{wrong}/{checked} sampled requests differ from "
                            f"the oracle deployment")
        return problems


def make_server() -> FleetServer:
    return FleetServer(
        config.MODELS, batch_size=config.BATCH_SIZE, compile_config=compile_config(),
        policy=BatchingPolicy.dynamic(config.BATCH_SIZE, config.MAX_WAIT_S),
        execution="real", backend="thread", workers=config.FLEET_WORKERS)


class TqtRetrain(Workload):
    """Closed loop: ``Trainer.train_step`` on the ``wt,th`` INT8 graph,
    cycling a synthetic training set drawn from ``--seed``."""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        dataset = SyntheticImageNet(
            num_classes=config.NUM_CLASSES, image_size=config.IMAGE_SIZE,
            train_size=config.TRAIN_SET, val_size=config.VAL_SET, seed=self.seed)
        preprocessor = Preprocessor()
        self.train_loader = DataLoader(dataset, dataset.train, config.BATCH_SIZE,
                                       preprocessor=preprocessor, seed=self.seed)
        self.val_loader = DataLoader(dataset, dataset.val, config.BATCH_SIZE,
                                     shuffle=False, preprocessor=preprocessor,
                                     seed=self.seed)
        calibration = sample_calibration_batches(
            dataset, num_samples=config.CALIBRATION_SAMPLES,
            preprocessor=preprocessor, seed=self.seed)
        # One FP32 epoch stands in for the model-zoo checkpoint TQT starts from.
        self.fp32 = build_model(config.TRAIN_MODEL, num_classes=config.NUM_CLASSES,
                                seed=config.COMPILE_SEED)
        Trainer(self.fp32, self.train_loader, self.val_loader,
                hparams=PaperHyperparameters(
                    batch_size=config.BATCH_SIZE, weight_lr=3e-3, max_epochs=1,
                    freeze_thresholds=False, bn_freeze_epochs=1)).train(1)
        self.folded = clone_graph(self.fp32)
        self.folded.eval()
        transforms.run_default_optimizations(
            self.folded, channel_hints=avgpool_channel_hints(self.folded))
        self.quantized = prepare_retrain(self.folded, calibration, mode="wt,th",
                                         precision=INT8_PRECISION).graph
        self.trainer = Trainer(self.quantized, self.train_loader, self.val_loader,
                               hparams=PaperHyperparameters(batch_size=config.BATCH_SIZE))
        self.batches = list(self.train_loader)

    def thresholds(self) -> dict[str, float]:
        return {name: float(np.asarray(q.log2_t.data).reshape(-1)[0])
                for name, q in collect_tqt_quantizers(
                    self.quantized, trainable_only=True).items()}

    def _steps(self, seconds: float) -> tuple[list[float], list[float]]:
        latencies, losses = [], []
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            images, labels = self.batches[len(losses) % len(self.batches)]
            start = time.perf_counter()
            losses.append(self.trainer.train_step(images, labels))
            latencies.append(time.perf_counter() - start)
        return latencies, losses

    def warm(self, seconds: float) -> None:
        self.thresholds_before = self.thresholds()
        self._steps(seconds)

    def measure(self, seconds: float) -> Window:
        with _Meter() as meter:
            latencies, self.losses = self._steps(seconds)
        bad = sum(not math.isfinite(loss) for loss in self.losses)
        return Window(unit="image", good=(len(self.losses) - bad) * config.BATCH_SIZE,
                      attempted=len(self.losses), failed=bad,
                      latencies_ms=np.asarray(latencies) * 1e3,
                      wall_s=meter.wall_s, cpu_s=meter.cpu_s, rss_mb=meter.rss_mb,
                      detail={"steps": len(self.losses)})

    def check(self, window: Window) -> list[str]:
        problems = []
        if window.failed:
            problems.append(f"{window.failed} non-finite losses")
        # The batches cycle in a fixed order, so the first and the last epoch
        # of the window see the same images; shorter stretches compare
        # different batches and their means cross by chance.
        epoch = len(self.batches)
        if len(self.losses) >= 2 * epoch:
            first, last = np.mean(self.losses[:epoch]), np.mean(self.losses[-epoch:])
            window.detail.update(loss_first_epoch=float(first), loss_last_epoch=float(last))
            if not last < first:
                problems.append(f"loss did not fall: first epoch {first:.4f}, "
                                f"last epoch {last:.4f}")
        else:
            window.detail["loss_trend"] = "unchecked: window shorter than two epochs"
        after = self.thresholds()
        moved = sum(after[name] != before
                    for name, before in self.thresholds_before.items())
        window.detail.update(trainable_thresholds=len(after), thresholds_moved=moved)
        if moved < 1:
            problems.append("no trainable threshold moved")
        return problems


def make(name: str, seed: int) -> Workload:
    if name == "engine_offline":
        return EngineOffline(seed)
    if name == "fleet_steady":
        return Fleet(seed, config.STEADY_RPS)
    if name == "fleet_overload":
        return Fleet(seed, config.OVERLOAD_RPS)
    if name == "tqt_retrain":
        return TqtRetrain(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {config.WORKLOADS}")
