"""The deployment front door: one compile call, one object to run and ship.

:func:`compile` goes from a registry name (or an already-quantized graph) to
a :class:`Deployment` in one step, driven by a single
:class:`~repro.deploy.CompileConfig` instead of kwargs scattered across
``optimize_plan`` / ``ExecutionPlan.bind`` / ``FleetServer``.  The deployment
object then exposes the whole serving surface:

* :meth:`Deployment.run` / :meth:`Deployment.run_partial` — direct engine
  execution;
* :meth:`Deployment.runner` — megabatch coalescing of partial fills;
* :meth:`Deployment.serve` — a :class:`~repro.serving.FleetServer` with this
  deployment preloaded into the plan cache;
* :meth:`Deployment.profile` — the timing breakdown of the executor the
  engine runs (tape instructions, or plan steps on the oracle);
* :meth:`Deployment.save` / :meth:`Deployment.load` — persistent plan
  artifacts.  A loaded deployment binds the deserialized plan (prepacked
  weights, cached autotune choices) and performs **zero** re-lowering,
  re-optimization and re-profiling; it is bit-exact with a fresh compile of
  the same config.
"""

from __future__ import annotations

import warnings
from pathlib import Path
from typing import Sequence

import numpy as np

from ..data import SyntheticImageNet, sample_calibration_batches
from ..engine.optimizer import OptimizedPlan, optimize_plan
from ..engine.plan import (
    CompiledEngine,
    EngineOutput,
    ExecutionPlan,
    PlanProfile,
    lower_graph,
)
from ..engine.runner import BatchedRunner
from ..graph import GraphIR, QuantizedModel, quantize_static, transforms
from ..models.inception import avgpool_channel_hints
from ..models.registry import MODEL_REGISTRY, available_models
from .artifact import ArtifactVersionError, load_artifact, plan_fingerprint, save_artifact
from .config import CompileConfig, ServeConfig

__all__ = ["Deployment", "compile", "load"]


def _quantize_registry(name: str, config: CompileConfig) -> tuple[GraphIR, int, int]:
    """Build → transform → statically quantize a registry model.

    Returns the quantized graph, its input channel count and the image size.
    """
    try:
        spec = MODEL_REGISTRY[name]
    except KeyError as exc:
        raise ValueError(f"unknown model {name!r}; available: "
                         f"{available_models()}") from exc
    image_size = config.image_size if config.image_size is not None else spec.input_size
    quant = config.quant

    graph = spec.build(num_classes=config.num_classes, seed=quant.seed,
                       **config.model_kwargs)
    graph.eval()
    transforms.run_default_optimizations(graph, channel_hints=avgpool_channel_hints(graph))

    dataset = SyntheticImageNet(num_classes=config.num_classes, image_size=image_size,
                                train_size=quant.calibration_samples,
                                val_size=max(quant.calibration_samples,
                                             quant.calibration_batch_size),
                                seed=quant.seed)
    calibration = sample_calibration_batches(dataset,
                                             num_samples=quant.calibration_samples,
                                             batch_size=quant.calibration_batch_size,
                                             seed=quant.seed)
    quantized = quantize_static(graph, calibration, precision=quant.precision, copy=False)
    return quantized.graph, spec.in_channels, image_size


def compile(model_or_name: str | GraphIR | QuantizedModel,  # noqa: A001 - the API name
            config: CompileConfig | None = None, **overrides) -> "Deployment":
    """Compile a model for integer deployment.

    ``model_or_name`` is a registry name (the model is built, transformed
    and statically quantized from the config's recipe), an
    already-quantized :class:`~repro.graph.ir.GraphIR`, or a
    :class:`~repro.graph.QuantizedModel`.  Flat keyword ``overrides`` are
    routed into the nested config (``batch_size=4`` → runtime,
    ``calibration_samples=8`` → quant, unknown names → model kwargs), so
    call sites migrating from the legacy entry points keep their spelling.
    """
    config = (config if config is not None else CompileConfig())
    if overrides:
        config = config.with_overrides(**overrides)

    if isinstance(model_or_name, str):
        model = model_or_name
        graph, in_channels, image_size = _quantize_registry(model, config)
    else:
        graph = (model_or_name.graph if isinstance(model_or_name, QuantizedModel)
                 else model_or_name)
        if not isinstance(graph, GraphIR):
            raise TypeError(f"compile() expects a registry name, GraphIR or "
                            f"QuantizedModel, got {type(model_or_name).__name__}")
        if config.image_size is None:
            raise ValueError("compile(GraphIR, ...) requires config.image_size "
                             "(there is no registry spec to default from)")
        model, in_channels, image_size = graph.graph_name, config.in_channels, config.image_size
    plan = lower_graph(graph)
    if config.optimize:
        plan = optimize_plan(plan, autotune=config.autotune)
    runtime = config.runtime
    engine = plan.bind((runtime.batch_size, in_channels, image_size, image_size),
                       accumulate=runtime.accumulate, mode=runtime.mode,
                       fuse=runtime.fuse)
    return Deployment(model=model, config=config, plan=plan, engine=engine,
                      source="compiled", graph=graph)


def load(path: str | Path) -> "Deployment":
    """Module-level alias for :meth:`Deployment.load`."""
    return Deployment.load(path)


class Deployment:
    """A compiled model plus everything needed to run, serve and ship it."""

    def __init__(self, *, model: str, config: CompileConfig, plan: ExecutionPlan,
                 engine: CompiledEngine, source: str = "compiled",
                 manifest: dict | None = None, graph: GraphIR | None = None) -> None:
        self.model = model
        self.config = config
        self.plan = plan
        self.engine = engine
        self.source = source                   # "compiled" | "artifact"
        self.artifact_manifest = manifest      # set on loaded deployments
        self._graph = graph

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> GraphIR:
        """The fake-quant simulation graph (fresh compiles only)."""
        if self._graph is not None:
            return self._graph
        raise AttributeError(
            "this deployment was loaded from an artifact; the fake-quant "
            "simulation graph is not serialized (recompile to parity-check)")

    @property
    def input_shape(self) -> tuple[int, ...]:
        return self.engine.input_shape

    @property
    def batch_size(self) -> int:
        return self.engine.batch_size

    @property
    def output_meta(self):
        return self.engine.output_meta

    @property
    def optimized(self) -> bool:
        return isinstance(self.plan, OptimizedPlan)

    @property
    def kernel_choices(self) -> dict[str, str] | None:
        """The tape autotuner's cached decisions riding on the plan (and its
        artifacts); ``None`` for an unoptimized deployment."""
        return self.plan.kernel_choices if self.optimized else None

    @property
    def pass_log(self) -> list[str]:
        """Optimizer passes the plan went through (empty when unoptimized)."""
        if self.optimized and self.plan.report is not None:
            return list(self.plan.report.passes)
        return []

    @property
    def fingerprint(self) -> str:
        """Content hash of the plan (stable across save/load round trips)."""
        return plan_fingerprint(self.plan)

    def manifest(self) -> dict:
        """Plan manifest extended with deployment-level metadata."""
        data = self.plan.manifest()
        data["deployment"] = {
            "model": self.model,
            "source": self.source,
            "input_shape": list(self.engine.input_shape),
            "accumulate": self.engine.accumulate,
            "fingerprint": self.fingerprint,
            "pass_log": self.pass_log,
            "config": self.config.to_dict(),
        }
        return data

    def summary(self) -> str:
        return self.plan.summary()

    def __repr__(self) -> str:
        return (f"Deployment(model={self.model!r}, source={self.source!r}, "
                f"input_shape={self.engine.input_shape}, "
                f"optimized={self.optimized})")

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self, x: np.ndarray) -> EngineOutput:
        """Execute one full batch through the compiled engine."""
        return self.engine.run(x)

    def run_partial(self, images: np.ndarray) -> EngineOutput:
        """Execute a partially filled batch (``1 <= fill <= batch_size``)."""
        return self.engine.run_partial(images)

    def profile(self, x: np.ndarray | None = None, repeats: int = 5,
                level: str | None = None) -> PlanProfile:
        """Timing breakdown of the executor the engine runs.

        A tape-mode deployment (every optimized one) reports its compiled
        instruction program — fused elementwise chains as single
        instructions, tunable groups under their chosen kernel variant; a
        steps-mode deployment (every reference one) reports one row per
        lowered plan step.  ``level`` (``"tape"`` | ``"steps"``) may only
        name that executor; see :meth:`repro.engine.plan.CompiledEngine.profile`.
        """
        return self.engine.profile(x=x, repeats=repeats, level=level)

    def runner(self) -> BatchedRunner:
        """Megabatch coalescing of partial fills over this deployment's engine."""
        return BatchedRunner(self.engine)

    def serve(self, serve: ServeConfig | None = None, *, compute_time_fn=None,
              compile_config: CompileConfig | None = None,
              preload: "Sequence[Deployment]" = ()):
        """Stand up a :class:`~repro.serving.FleetServer` around this deployment.

        The fleet always contains this deployment's model (preloaded into
        the plan cache, so it is never recompiled); ``preload`` seeds
        *additional* already-compiled deployments the same way — a
        multi-model fleet can come up with zero mid-stream compiles —
        and ``serve.fleet`` adds registry models compiled on demand with
        this deployment's compile config (or ``compile_config`` when
        given).  When ``serve.artifact_dir`` is set the cache gains a disk
        tier: plans are loaded from / saved to content-addressed artifacts.
        """
        from ..serving import AdmissionPolicy, BatchingPolicy, FleetServer

        serve = serve if serve is not None else ServeConfig()
        preload = list(preload)
        batch_size = self.config.runtime.batch_size
        max_batch = serve.max_batch if serve.max_batch is not None else batch_size
        fleet = [self.model]
        for deployment in preload:
            if deployment.model in fleet:
                raise ValueError(f"duplicate preloaded deployment for "
                                 f"{deployment.model!r}")
            if deployment.batch_size < max_batch:
                raise ValueError(
                    f"preloaded deployment {deployment.model!r} is bound to "
                    f"batch_size {deployment.batch_size}, below the serving "
                    f"max_batch {max_batch}")
            fleet.append(deployment.model)
        fleet += [m for m in serve.fleet if m not in fleet]
        policy = (BatchingPolicy.full_batch(max_batch) if serve.max_wait_s is None
                  else BatchingPolicy.dynamic(max_batch, serve.max_wait_s))
        server = FleetServer(
            fleet,
            batch_size=batch_size,
            policy=policy,
            admission=AdmissionPolicy(max_queue_depth=serve.max_queue_depth,
                                      slo_shed=serve.slo_shed,
                                      priority_shed=serve.priority_shed),
            cache_capacity=serve.cache_capacity,
            compile_config=compile_config if compile_config is not None else self.config,
            compute_time_fn=compute_time_fn,
            warm=False,
            workers=serve.workers,
            artifact_dir=serve.artifact_dir,
            disk_max_bytes=serve.disk_max_bytes,
            execution=serve.execution,
            backend=serve.backend,
            telemetry=serve.telemetry,
            faults=serve.faults,
            retry=serve.retry,
            breaker=serve.breaker,
        )
        server.cache.put(self.model, self)
        for deployment in preload:
            server.cache.put(deployment.model, deployment)
        if serve.warm:
            server.warm_up()
        return server

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, path: str | Path) -> Path:
        """Write this deployment's plan artifact; returns the path.

        The artifact carries the lowered (optimized) plan with prepacked
        weights, the optimizer pass log, and the autotuned kernel choices,
        content-addressed by the plan fingerprint.  Loading it skips the
        whole compile pipeline.
        """
        path = Path(path)
        save_artifact(path, self.plan, model=self.model,
                      input_shape=self.engine.input_shape,
                      accumulate=self.engine.accumulate, config=self.config)
        return path

    @classmethod
    def load(cls, path: str | Path, migrate: bool = True) -> "Deployment":
        """Rebuild a deployment from an artifact — no recompilation.

        The deserialized plan already carries prepacked weights and the
        cached autotune choices, so the only work performed is the buffer
        bind plus the tape compile; lowering, optimizer passes and kernel
        micro-profiling all stay at zero (observable via
        :data:`repro.engine.PIPELINE_COUNTERS`), and the engine is bit-exact
        with a fresh compile of the same config.

        **Version migration:** an older-version artifact is transparently
        migrated when ``migrate=True`` — the model is recompiled from the
        manifest's stored compile config (this *does* re-lower, once) and
        the artifact is rewritten in the current format, so shipped fleets
        roll forward instead of dying on :class:`~repro.deploy.ArtifactError`.
        """
        try:
            plan, manifest = load_artifact(path)
        except ArtifactVersionError as exc:
            if not migrate:
                raise
            return cls._migrate(path, exc.manifest)
        config = (CompileConfig.from_dict(manifest["config"])
                  if manifest.get("config") else CompileConfig())
        runtime = config.runtime
        engine = plan.bind(tuple(manifest["input_shape"]),
                           accumulate=manifest.get("accumulate", "blas"),
                           mode=runtime.mode, fuse=runtime.fuse)
        return cls(model=manifest["model"], config=config, plan=plan,
                   engine=engine, source="artifact", manifest=manifest)

    @classmethod
    def _migrate(cls, path: str | Path, manifest: dict) -> "Deployment":
        """Re-lower a readable older-version artifact and rewrite it."""
        if not manifest.get("config"):
            raise ArtifactVersionError(
                f"artifact {path} is version {manifest.get('version')!r} and "
                f"carries no compile config to re-lower from; recompile and "
                f"re-save it", manifest)
        model = manifest.get("model")
        if model not in MODEL_REGISTRY:
            # GraphIR/QuantizedModel compiles store the graph name, not a
            # registry name — there is nothing to re-lower from.
            raise ArtifactVersionError(
                f"artifact {path} is version {manifest.get('version')!r} for "
                f"{model!r}, which is not a registry model; migration can "
                f"only re-lower registry compiles — recompile the graph and "
                f"re-save the artifact", manifest)
        config = CompileConfig.from_dict(manifest["config"])
        warnings.warn(
            f"artifact {path} is format version {manifest.get('version')}; "
            f"re-lowering {model!r} from its stored compile config and "
            f"rewriting the artifact in the current format",
            UserWarning, stacklevel=3)
        deployment = compile(model, config)
        deployment.save(path)
        deployment.source = "artifact-migrated"
        return deployment
