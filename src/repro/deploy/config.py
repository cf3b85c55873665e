"""Typed configuration objects for the deployment API.

One compile call used to mean threading a dozen loose kwargs through
``optimize_plan`` → ``ExecutionPlan.bind`` → ``FleetServer``.  These
dataclasses replace that kwarg sprawl with four nested, validated configs:

* :class:`QuantConfig` — how the model is statically quantized (calibration
  budget, per-layer precision, seed).  Distinct from
  :class:`repro.quant.config.QuantConfig`, which describes a *single
  quantizer*; this one describes the deployment-level quantization recipe.
* :class:`RuntimeConfig` — how the compiled plan executes (batch shape,
  accumulation backend, executor).  Each plan has one executor: an
  optimized compile runs only as a BLAS-lane tape, and a reference compile
  (``CompileConfig(optimize=False)``) only on the step interpreter, so the
  oracle is ``optimize=False`` with ``accumulate="int"`` / ``mode="steps"``.
* :class:`CompileConfig` — the full compile recipe: model parameters plus
  the two configs above plus the optimizer switch.  Its
  :meth:`CompileConfig.to_dict` form is canonical and feeds the
  content-address hash of plan artifacts (:func:`repro.deploy.config_key`).
* :class:`ServeConfig` — how a deployment is served: batching policy,
  admission control, cache capacity, dispatch workers, and the artifact
  directory backing the plan cache's disk tier.

Every config is frozen; derive variants with :func:`dataclasses.replace` or
:meth:`CompileConfig.with_overrides` (which also understands the legacy flat
kwarg names, so migration from the old entry points is mechanical).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from ..quant.config import LayerPrecision
from ..faults import BreakerPolicy, FaultPlan, RetryPolicy
from ..telemetry.trace import TelemetryConfig

__all__ = ["QuantConfig", "RuntimeConfig", "CompileConfig", "ServeConfig"]


@dataclass(frozen=True)
class QuantConfig:
    """Static-quantization recipe for one deployment."""

    calibration_samples: int = 16
    calibration_batch_size: int = 8
    #: ignored (calibration is always layer by layer); deleted by the
    #: benchmark PR, ROADMAP 2(a)
    sequential_calibration: bool = False
    precision: LayerPrecision | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.calibration_samples < 1:
            raise ValueError(f"calibration_samples must be >= 1, "
                             f"got {self.calibration_samples}")
        if self.calibration_batch_size < 1:
            raise ValueError(f"calibration_batch_size must be >= 1, "
                             f"got {self.calibration_batch_size}")

    def to_dict(self) -> dict:
        data = asdict(self)
        if self.precision is not None:
            data["precision"] = asdict(self.precision)
        return data


@dataclass(frozen=True)
class RuntimeConfig:
    """Execution parameters of the bound engine."""

    batch_size: int = 8
    accumulate: str = "blas"
    mode: str = "tape"        # "tape" (optimized plans) | "steps" (reference plans)
    fuse: bool = True         # tape elementwise-chain fusion (A/B knob)

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.accumulate not in ("blas", "int"):
            raise ValueError(f"accumulate must be 'blas' or 'int', "
                             f"got {self.accumulate!r}")
        if self.mode not in ("tape", "steps"):
            raise ValueError(f"mode must be 'tape' or 'steps', got {self.mode!r}")

    def to_dict(self) -> dict:
        return asdict(self)


#: legacy flat kwarg name -> (nested config attribute, field name)
_FLAT_QUANT = ("calibration_samples", "calibration_batch_size",
               "sequential_calibration", "precision", "seed")
_FLAT_RUNTIME = ("batch_size", "accumulate", "mode", "fuse")


@dataclass(frozen=True)
class CompileConfig:
    """Everything :func:`repro.deploy.compile` needs beyond the model name."""

    num_classes: int = 10
    image_size: int | None = None     # None -> the registry spec's input size
    in_channels: int = 3
    quant: QuantConfig = field(default_factory=QuantConfig)
    runtime: RuntimeConfig = field(default_factory=RuntimeConfig)
    optimize: bool = True
    model_kwargs: dict = field(default_factory=dict)
    #: not a field: kernels are chosen by rule.  The frozen ``benchmarks/e2e``
    #: probe still reads it (ROADMAP 2(c)).
    autotune = False

    def __post_init__(self) -> None:
        if self.num_classes < 1:
            raise ValueError(f"num_classes must be >= 1, got {self.num_classes}")
        if self.image_size is not None and self.image_size < 1:
            raise ValueError(f"image_size must be >= 1, got {self.image_size}")
        if self.in_channels < 1:
            raise ValueError(f"in_channels must be >= 1, got {self.in_channels}")

    def to_dict(self) -> dict:
        """Canonical JSON-serializable form (feeds the artifact hash)."""
        return {
            "num_classes": self.num_classes,
            "image_size": self.image_size,
            "in_channels": self.in_channels,
            "quant": self.quant.to_dict(),
            "runtime": self.runtime.to_dict(),
            "optimize": self.optimize,
            "model_kwargs": dict(self.model_kwargs),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CompileConfig":
        quant = dict(data.get("quant", {}))
        if quant.get("precision") is not None:
            quant["precision"] = LayerPrecision(**quant["precision"])
        runtime = dict(data.get("runtime", {}))
        # Version-2 artifact manifests stored the removed shard-count field;
        # migration re-lowers from this config, so it must still parse.
        runtime.pop("workers", None)
        return cls(
            num_classes=data.get("num_classes", 10),
            image_size=data.get("image_size"),
            in_channels=data.get("in_channels", 3),
            quant=QuantConfig(**quant),
            runtime=RuntimeConfig(**runtime),
            optimize=data.get("optimize", True),
            model_kwargs=dict(data.get("model_kwargs", {})),
        )

    def with_overrides(self, **overrides) -> "CompileConfig":
        """New config with flat (legacy-style) kwargs routed to their homes.

        ``batch_size=4`` lands in :attr:`runtime`, ``calibration_samples=8``
        in :attr:`quant`, ``num_classes=6`` on the top level; unknown names
        accumulate into :attr:`model_kwargs` (they are forwarded to the
        registry factory, exactly as the legacy entry point forwarded them).
        """
        top = {f.name for f in fields(CompileConfig)} - {"quant", "runtime",
                                                         "model_kwargs"}
        quant_updates, runtime_updates, top_updates = {}, {}, {}
        extra_kwargs = {}
        for name, value in overrides.items():
            if name in top or name in ("quant", "runtime"):
                top_updates[name] = value
            elif name in _FLAT_QUANT:
                quant_updates[name] = value
            elif name in _FLAT_RUNTIME:
                runtime_updates[name] = value
            elif name != "model_kwargs":
                extra_kwargs[name] = value
        # An explicit model_kwargs override replaces the base mapping; loose
        # unknown kwargs then merge on top of it.
        base_kwargs = (dict(overrides["model_kwargs"])
                       if "model_kwargs" in overrides else dict(self.model_kwargs))
        model_kwargs = {**base_kwargs, **extra_kwargs}
        config = self
        if quant_updates:
            config = replace(config, quant=replace(config.quant, **quant_updates))
        if runtime_updates:
            config = replace(config, runtime=replace(config.runtime, **runtime_updates))
        return replace(config, model_kwargs=model_kwargs, **top_updates)


@dataclass(frozen=True)
class ServeConfig:
    """How a :class:`~repro.deploy.Deployment` is served as (part of) a fleet."""

    fleet: tuple[str, ...] = ()       # extra models; the deployment is always included
    max_batch: int | None = None      # None -> the runtime batch size
    max_wait_s: float | None = 5e-3   # None -> full-batch coalescing
    max_queue_depth: int | None = 128
    slo_shed: bool = True
    cache_capacity: int | None = None
    workers: int = 1                  # concurrent dispatch workers (across models)
    artifact_dir: str | Path | None = None   # disk tier for the plan cache
    disk_max_bytes: int | None = None        # disk-tier size bound (LRU GC)
    execution: str = "virtual"        # "virtual" clock | "real" thread pool
    backend: str = "thread"           # real-execution workers: "thread" | "process"
    priority_shed: bool = True        # preempt lower-priority queued requests
    warm: bool = True
    #: request-span tracing + metrics time-series knobs (None -> telemetry off)
    telemetry: TelemetryConfig | None = None
    #: fault plane (see :mod:`repro.faults`): a deterministic injection
    #: schedule, the retry/supervision policy, and per-model circuit breaking
    faults: "FaultPlan | None" = None
    retry: "RetryPolicy | None" = None
    breaker: "BreakerPolicy | None" = None

    def __post_init__(self) -> None:
        if self.max_batch is not None and self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.execution not in ("virtual", "real"):
            raise ValueError(f"execution must be 'virtual' or 'real', "
                             f"got {self.execution!r}")
        if self.backend not in ("thread", "process"):
            raise ValueError(f"backend must be 'thread' or 'process', "
                             f"got {self.backend!r}")

    def to_dict(self) -> dict:
        data = asdict(self)
        data["fleet"] = list(self.fleet)
        if self.artifact_dir is not None:
            data["artifact_dir"] = str(self.artifact_dir)
        if self.faults is not None:
            data["faults"] = self.faults.to_dict()
        if self.retry is not None:
            data["retry"] = self.retry.to_dict()
        if self.breaker is not None:
            data["breaker"] = self.breaker.to_dict()
        return data
